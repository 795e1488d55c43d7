/**
 * @file
 * Tests for the gating-invariant checker: hand-seeded violations must
 * be caught with the right cycle and unit, hand-built clean streams
 * must pass, and every real preset's trace must replay violation-free.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/warped_gates.hh"
#include "sim/gpu.hh"
#include "trace/check.hh"

namespace wg {
namespace {

using trace::Event;
using trace::EventKind;
using trace::GateReason;
using trace::InvariantChecker;
using trace::WakeReason;

constexpr std::uint8_t kInt = 0;
constexpr std::uint8_t kFp = 1;

/** Paper-default blackout metadata (§7.1 parameters). */
trace::Meta
blackoutMeta(const char* policy = "naive-blackout")
{
    trace::Meta m;
    m.policy = policy;
    m.scheduler = "gates";
    m.numSms = 1;
    m.idleDetect = 5;
    m.breakEven = 14;
    m.wakeupDelay = 3;
    m.adaptive = true;
    m.idleDetectMin = 5;
    m.idleDetectMax = 10;
    m.epochLength = 1000;
    m.criticalThreshold = 5;
    m.decrementEpochs = 4;
    return m;
}

Event
ev(Cycle cycle, EventKind kind, std::uint8_t unit, std::uint8_t cluster,
   std::uint8_t arg = 0, std::uint32_t value = 0)
{
    Event e;
    e.cycle = cycle;
    e.kind = kind;
    e.unit = unit;
    e.cluster = cluster;
    e.arg = arg;
    e.value = value;
    return e;
}

TEST(Checker, CleanGateCyclePasses)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(90, EventKind::UnitIdle, kInt, 0));
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(114, EventKind::BetExpire, kInt, 0, 0, 14));
    checker.feed(0, ev(130, EventKind::Wakeup, kInt, 0,
                       static_cast<std::uint8_t>(WakeReason::Demand)));
    checker.feed(0, ev(133, EventKind::WakeupDone, kInt, 0));
    checker.feed(0, ev(134, EventKind::Issue, kInt, 0, 0, 7));
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_EQ(checker.eventCount(), 6u);
    EXPECT_EQ(checker.eventCount(EventKind::Gate), 1u);
}

TEST(Checker, SeededBetViolationReportsCycleAndUnit)
{
    // The deliberately-broken stream: gate at 100, wake at 105 — only
    // 5 cycles held against a break-even of 14.
    InvariantChecker checker(blackoutMeta());
    checker.feed(2, ev(100, EventKind::Gate, kInt, 1,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(2, ev(105, EventKind::Wakeup, kInt, 1,
                       static_cast<std::uint8_t>(WakeReason::Demand)));

    ASSERT_EQ(checker.violations().size(), 1u);
    const trace::Violation& v = checker.violations()[0];
    EXPECT_EQ(v.sm, 2u);
    EXPECT_EQ(v.cycle, 105u);
    EXPECT_EQ(v.unit, "INT1");
    EXPECT_NE(v.message.find("blackout violated"), std::string::npos);
    // The report must let a human find the offence: cycle and unit.
    EXPECT_NE(v.toString().find("cycle 105"), std::string::npos);
    EXPECT_NE(v.toString().find("INT1"), std::string::npos);
}

TEST(Checker, GatedUnitMustNotIssue)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(100, EventKind::Gate, kFp, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(101, EventKind::Issue, kFp, 0, 0, 9));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].unit, "FP0");
    EXPECT_NE(checker.violations()[0].message.find("issued warp 9"),
              std::string::npos);
}

TEST(Checker, IssueDuringWakeupDelayIsViolation)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(114, EventKind::Wakeup, kInt, 0,
                       static_cast<std::uint8_t>(WakeReason::Critical)));
    // Still waking (delay 3): issuing now is illegal...
    checker.feed(0, ev(115, EventKind::Issue, kInt, 0, 0, 4));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("waking"),
              std::string::npos);
    // ...but fine once the wakeup completes.
    checker.feed(0, ev(117, EventKind::WakeupDone, kInt, 0));
    checker.feed(0, ev(118, EventKind::Issue, kInt, 0, 0, 4));
    EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(Checker, UncompensatedWakeIllegalUnderBlackout)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(120, EventKind::Wakeup, kInt, 0,
                       static_cast<std::uint8_t>(
                           WakeReason::Uncompensated)));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("uncompensated"),
              std::string::npos);
}

TEST(Checker, ConventionalPolicyAllowsEarlyWake)
{
    // Under conventional gating an early (uncompensated) wake is the
    // modelled energy-loss case, not an invariant violation.
    trace::Meta meta = blackoutMeta("conventional");
    InvariantChecker checker(meta);
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(105, EventKind::Wakeup, kInt, 0,
                       static_cast<std::uint8_t>(
                           WakeReason::Uncompensated)));
    EXPECT_TRUE(checker.violations().empty());
}

TEST(Checker, BetExpiryAtWrongCycleIsViolation)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(113, EventKind::BetExpire, kInt, 0, 0, 13));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("expected 114"),
              std::string::npos);
}

TEST(Checker, CoordDrainGateWithWaitingWarpsIsViolation)
{
    InvariantChecker checker(blackoutMeta("coordinated-blackout"));
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::CoordDrain),
                       3));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("ACTV=3"),
              std::string::npos);
}

TEST(Checker, SecondClusterGateWithActvIsViolation)
{
    InvariantChecker checker(blackoutMeta("coordinated-blackout"));
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect),
                       0));
    // Peer cluster gated strictly later while 2 INT warps wait: the
    // coordinated rule says the type must keep one cluster awake.
    checker.feed(0, ev(150, EventKind::Gate, kInt, 1,
                       static_cast<std::uint8_t>(GateReason::IdleDetect),
                       2));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].unit, "INT1");
    EXPECT_NE(checker.violations()[0].message.find("second INT"),
              std::string::npos);
}

TEST(Checker, SameCycleClusterGatesAreLegal)
{
    // The controller ticks both clusters against one pre-tick snapshot,
    // so two gates of one type can land on the same cycle legally.
    InvariantChecker checker(blackoutMeta("coordinated-blackout"));
    checker.feed(0, ev(200, EventKind::Gate, kFp, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect),
                       0));
    checker.feed(0, ev(200, EventKind::Gate, kFp, 1,
                       static_cast<std::uint8_t>(GateReason::IdleDetect),
                       2));
    EXPECT_TRUE(checker.violations().empty());
}

TEST(Checker, AdaptiveWindowOutOfBoundsFlagged)
{
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(1000, EventKind::EpochUpdate, kInt,
                       trace::kNoCluster, 0, 11));
    ASSERT_GE(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("outside [5, 10]"),
              std::string::npos);
}

TEST(Checker, AdaptiveScheduleReplicaTracksFastUpSlowDown)
{
    InvariantChecker checker(blackoutMeta());
    // Hot epoch (6 criticals > threshold 5): window 5 -> 6 immediately.
    checker.feed(0, ev(1000, EventKind::EpochUpdate, kInt,
                       trace::kNoCluster, 6, 6));
    // Three quiet epochs: window must hold at 6 (decrement needs 4).
    for (int i = 1; i <= 3; ++i)
        checker.feed(0, ev(1000 + 1000 * i, EventKind::EpochUpdate, kInt,
                           trace::kNoCluster, 0, 6));
    // Fourth consecutive quiet epoch: slow decrease back to 5.
    checker.feed(0, ev(5000, EventKind::EpochUpdate, kInt,
                       trace::kNoCluster, 0, 5));
    EXPECT_TRUE(checker.violations().empty());

    // A window that jumps against the schedule is flagged.
    checker.feed(0, ev(6000, EventKind::EpochUpdate, kInt,
                       trace::kNoCluster, 0, 8));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].message.find("diverged"),
              std::string::npos);
}

TEST(Checker, TruncatedSmIsSuppressedWithWarning)
{
    InvariantChecker checker(blackoutMeta());
    checker.noteTruncated(0, 42);
    // A stream that would otherwise trip two violations.
    checker.feed(0, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(0, ev(101, EventKind::Issue, kInt, 0, 0, 1));
    checker.feed(0, ev(105, EventKind::Wakeup, kInt, 0,
                       static_cast<std::uint8_t>(WakeReason::Demand)));
    EXPECT_TRUE(checker.violations().empty());
    ASSERT_EQ(checker.warnings().size(), 1u);
    EXPECT_NE(checker.warnings()[0].find("42"), std::string::npos);
    // Other SMs keep full checking.
    checker.feed(1, ev(100, EventKind::Gate, kInt, 0,
                       static_cast<std::uint8_t>(GateReason::IdleDetect)));
    checker.feed(1, ev(101, EventKind::Issue, kInt, 0, 0, 1));
    EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(Checker, OneMshrRejectPerCycleWithAttempts)
{
    constexpr std::uint8_t kLdst = 3;
    InvariantChecker checker(blackoutMeta());
    checker.feed(0, ev(50, EventKind::MshrReject, kLdst,
                       trace::kNoCluster, 0, 3));
    checker.feed(0, ev(51, EventKind::MshrReject, kLdst,
                       trace::kNoCluster, 0, 2));
    checker.feed(1, ev(51, EventKind::MshrReject, kLdst,
                       trace::kNoCluster, 0, 1)); // other SM: fine
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_EQ(checker.mshrRejectAttempts(), 6u);

    checker.feed(0, ev(51, EventKind::MshrReject, kLdst,
                       trace::kNoCluster, 0, 1));
    checker.feed(0, ev(52, EventKind::MshrReject, kLdst,
                       trace::kNoCluster, 0, 0));
    ASSERT_EQ(checker.violations().size(), 2u);
    EXPECT_EQ(checker.violations()[0].cycle, 51u);
    EXPECT_NE(checker.violations()[0].message.find("one cycle"),
              std::string::npos);
    EXPECT_EQ(checker.violations()[1].cycle, 52u);
    EXPECT_NE(checker.violations()[1].message.find("zero attempts"),
              std::string::npos);
}

TEST(Checker, VersionOneTracesRejectPerAttempt)
{
    // Schema version 1 recorded one mshr-reject per refused attempt,
    // several per cycle; that stream is not a violation.
    trace::Meta meta = blackoutMeta();
    meta.version = 1;
    InvariantChecker checker(meta);
    for (int i = 0; i < 3; ++i)
        checker.feed(0, ev(50, EventKind::MshrReject, 3, trace::kNoCluster,
                           0, 1));
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_EQ(checker.mshrRejectAttempts(), 3u);
}

// ---- whole-preset replay: every technique's real trace is clean ----

BenchmarkProfile
smallProfile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

std::vector<trace::Violation>
runAndCheck(GpuConfig config)
{
    Gpu gpu(config);
    trace::Collector collector;
    gpu.run(smallProfile(), nullptr, &collector);
    EXPECT_GT(collector.totalEvents(), 0u);
    return trace::checkCollector(collector);
}

TEST(CheckerPresets, AllTechniqueTracesReplayClean)
{
    ExperimentOptions opts;
    opts.numSms = 2;
    for (Technique t : {Technique::Baseline, Technique::ConvPG,
                        Technique::Gates, Technique::NaiveBlackout,
                        Technique::CoordinatedBlackout,
                        Technique::WarpedGates}) {
        auto violations = runAndCheck(makeConfig(t, opts));
        EXPECT_TRUE(violations.empty())
            << techniqueName(t) << ": " << violations.size()
            << " violations, first: " << violations[0].toString();
    }
}

TEST(CheckerPresets, GtoSchedulerTraceReplaysClean)
{
    ExperimentOptions opts;
    opts.numSms = 2;
    GpuConfig config = makeConfig(Technique::WarpedGates, opts);
    config.sm.scheduler = SchedulerPolicy::Gto;
    auto violations = runAndCheck(config);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations under GTO, first: "
        << violations[0].toString();
}

} // namespace
} // namespace wg
