/**
 * @file
 * Unit tests for the event-trace subsystem core: the per-SM ring
 * recorder, the whole-GPU collector, the three sinks, and the
 * zero-impact contract of the disabled (null-recorder) path.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "core/warped_gates.hh"
#include "metrics/registry.hh"
#include "metrics/sampler.hh"
#include "sim/gpu.hh"
#include "trace/check.hh"
#include "trace/recorder.hh"
#include "trace/sink.hh"

namespace wg {
namespace {

using trace::Event;
using trace::EventKind;

TEST(Recorder, RecordsAndIteratesOldestFirst)
{
    trace::Recorder rec(3, 8);
    EXPECT_EQ(rec.sm(), 3u);
    EXPECT_EQ(rec.capacity(), 8u);
    for (Cycle c = 1; c <= 5; ++c)
        rec.record(c, EventKind::UnitIdle, 0, 0);
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.overwritten(), 0u);

    std::vector<Event> events = rec.events();
    ASSERT_EQ(events.size(), 5u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, i + 1) << "oldest-first order";
}

TEST(Recorder, RingWrapKeepsNewestAndCountsLost)
{
    trace::Recorder rec(0, 4);
    for (Cycle c = 0; c < 10; ++c)
        rec.record(c, EventKind::Issue, 0, 0, 0,
                   static_cast<std::uint32_t>(c));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.overwritten(), 6u);

    std::vector<Event> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 6 + i) << "newest window retained";
        EXPECT_EQ(events[i].value, 6 + i);
    }

    // forEach must visit the identical sequence without copying.
    std::size_t i = 0;
    rec.forEach([&](const Event& e) {
        EXPECT_EQ(e.cycle, events[i].cycle);
        ++i;
    });
    EXPECT_EQ(i, 4u);
}

TEST(Recorder, EventPayloadRoundTrips)
{
    trace::Recorder rec(0, 4);
    rec.record(123, EventKind::Gate, 1, 0,
               static_cast<std::uint8_t>(trace::GateReason::CoordDrain),
               77);
    ASSERT_EQ(rec.size(), 1u);
    Event e = rec.events()[0];
    EXPECT_EQ(e.cycle, 123u);
    EXPECT_EQ(e.kind, EventKind::Gate);
    EXPECT_EQ(e.unit, 1);
    EXPECT_EQ(e.cluster, 0);
    EXPECT_EQ(e.arg,
              static_cast<std::uint8_t>(trace::GateReason::CoordDrain));
    EXPECT_EQ(e.value, 77u);
}

TEST(Collector, PrepareCreatesOneRecorderPerSm)
{
    trace::Collector collector;
    EXPECT_EQ(collector.numSms(), 0u);
    EXPECT_EQ(collector.recorder(0), nullptr);

    collector.prepare(3);
    EXPECT_EQ(collector.numSms(), 3u);
    for (SmId s = 0; s < 3; ++s) {
        ASSERT_NE(collector.recorder(s), nullptr);
        EXPECT_EQ(collector.recorder(s)->sm(), s);
    }
    EXPECT_EQ(collector.recorder(3), nullptr) << "out of range";

    collector.recorder(1)->record(9, EventKind::Issue);
    EXPECT_EQ(collector.totalEvents(), 1u);
    EXPECT_EQ(collector.totalOverwritten(), 0u);
}

TEST(Collector, SmFilterLeavesOtherSmsNull)
{
    trace::RecorderConfig cfg;
    cfg.smFilter = 2;
    trace::Collector collector(cfg);
    collector.prepare(4);
    EXPECT_EQ(collector.numSms(), 4u);
    EXPECT_EQ(collector.recorder(0), nullptr);
    EXPECT_EQ(collector.recorder(1), nullptr);
    ASSERT_NE(collector.recorder(2), nullptr);
    EXPECT_EQ(collector.recorder(3), nullptr);
}

// ---- recording a real SM run ----

BenchmarkProfile
smallProfile()
{
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return p;
}

TEST(TraceSm, FullRunRecordsOrderedEvents)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    ProgramGenerator gen(1);
    auto programs = gen.generateSm(smallProfile(), 0);

    trace::Recorder rec(0, std::size_t{1} << 20);
    Sm sm(config.sm, programs, 42, &rec);
    const SmStats& stats = sm.run();

    EXPECT_GT(rec.size(), 0u);
    EXPECT_EQ(rec.overwritten(), 0u) << "capacity sized for the run";

    std::uint64_t issues = 0, idles = 0, migrates = 0;
    Cycle prev = 0;
    rec.forEach([&](const Event& e) {
        EXPECT_GE(e.cycle, prev) << "events must be cycle-ordered";
        prev = e.cycle;
        switch (e.kind) {
          case EventKind::Issue: ++issues; break;
          case EventKind::UnitIdle: ++idles; break;
          case EventKind::WarpMigrate: ++migrates; break;
          default: break;
        }
    });
    EXPECT_EQ(issues, stats.issuedTotal)
        << "every issued instruction records exactly one Issue event";
    EXPECT_GT(idles, 0u);
    EXPECT_GT(migrates, 0u);
}

TEST(TraceSm, NullRecorderLeavesResultsUntouched)
{
    GpuConfig config = makeConfig(Technique::WarpedGates);
    ProgramGenerator gen(1);
    auto programs = gen.generateSm(smallProfile(), 0);

    Sm plain(config.sm, programs, 42, nullptr);
    const SmStats& a = plain.run();

    trace::Recorder rec(0, std::size_t{1} << 20);
    Sm traced(config.sm, programs, 42, &rec);
    const SmStats& b = traced.run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.issuedTotal, b.issuedTotal);
    for (std::size_t c = 0; c < kNumUnitClasses; ++c)
        EXPECT_EQ(a.issuedByClass[c], b.issuedByClass[c]);
}

TEST(TraceSm, RejectAttemptsSumToMshrRejects)
{
    // bfs is the suite's memory-bound profile: MSHR-full stalls are
    // most of its cycles, and fast-forward replays most of those.
    ExperimentOptions opts;
    opts.numSms = 2;
    GpuConfig config = makeConfig(Technique::WarpedGates, opts);
    BenchmarkProfile p = findBenchmark("bfs");
    p.kernelLength = 800;

    trace::Collector traces;
    metrics::Collector mets;
    SimResult r = Gpu(config).run(p, nullptr, &traces, &mets);
    ASSERT_EQ(traces.totalOverwritten(), 0u);
    ASSERT_GT(r.aggregate.mshrRejects, 0u);

    // One event per rejecting (SM, cycle), attempts >= 1, and the
    // attempts add up to the simulator's own counter exactly.
    std::uint64_t attempts = 0;
    for (SmId s = 0; s < traces.numSms(); ++s) {
        Cycle last = kNeverCycle;
        traces.recorder(s)->forEach([&](const Event& e) {
            if (e.kind != EventKind::MshrReject)
                return;
            EXPECT_GE(e.value, 1u);
            EXPECT_NE(e.cycle, last) << "two mshr-reject events in a cycle";
            last = e.cycle;
            attempts += e.value;
        });
    }
    EXPECT_EQ(attempts, r.aggregate.mshrRejects);
    EXPECT_EQ(attempts, static_cast<std::uint64_t>(
                            metrics::toStatSet(r).get("gpu.mem.mshrRejects")));
    EXPECT_TRUE(trace::checkCollector(traces).empty());

    // The epoch CSV's mshr_rejects column is each epoch's share of the
    // same counter: equal to the metrics sampler's delta.
    std::map<std::pair<SmId, std::uint64_t>, std::uint64_t> sampled;
    for (SmId s = 0; s < mets.numSms(); ++s)
        for (const metrics::EpochSample& e : mets.sampler(s)->samples())
            if (e.delta.mshrRejects > 0)
                sampled[{s, e.epoch}] = e.delta.mshrRejects;
    std::ostringstream csv;
    trace::writeEpochCsv(csv, traces);
    std::istringstream in(csv.str());
    std::string line;
    std::getline(in, line); // header
    std::map<std::pair<SmId, std::uint64_t>, std::uint64_t> exported;
    while (std::getline(in, line)) {
        std::vector<std::string> cols;
        std::istringstream row(line);
        std::string col;
        while (std::getline(row, col, ','))
            cols.push_back(col);
        ASSERT_GE(cols.size(), 14u) << line;
        // Columns: sm, epoch, start_cycle, 4 x issues, gates,
        // bet_expiries, wakeups, critical_wakeups, wakeups_denied,
        // mshr_fills, mshr_rejects, ...
        const std::uint64_t rejects = std::stoull(cols[13]);
        if (rejects > 0)
            exported[{static_cast<SmId>(std::stoul(cols[0])),
                      std::stoull(cols[1])}] = rejects;
    }
    EXPECT_FALSE(sampled.empty());
    EXPECT_EQ(exported, sampled);
}

TEST(TraceSm, DefaultHotspotTraceDoesNotWrap)
{
    // The paper-default configuration (six SMs) at the default ring
    // capacity keeps the whole run: no SM's stream is truncated, so
    // every invariant check covers every cycle.
    GpuConfig config = makeConfig(Technique::WarpedGates);
    trace::Collector traces;
    Gpu(config).run(findBenchmark("hotspot"), &ThreadPool::global(),
                    &traces);
    EXPECT_EQ(traces.totalOverwritten(), 0u);
    EXPECT_GT(traces.totalEvents(), 0u);
}

// ---- sinks ----

/** A tiny collector with deterministic hand-placed events. */
trace::Collector
makeSampleCollector(std::size_t capacity = 64)
{
    trace::RecorderConfig cfg;
    cfg.capacity = capacity;
    trace::Collector collector(cfg);
    collector.prepare(2);
    collector.meta = makeTraceMeta(makeConfig(Technique::WarpedGates), 2);

    trace::Recorder* r0 = collector.recorder(0);
    r0->record(10, EventKind::UnitIdle, 0, 0);
    r0->record(15, EventKind::Gate, 0, 0,
               static_cast<std::uint8_t>(trace::GateReason::IdleDetect), 0);
    r0->record(29, EventKind::BetExpire, 0, 0, 0, 14);
    collector.recorder(1)->record(7, EventKind::Issue, 1, 0, 0, 3);
    return collector;
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(Sink, JsonlEmitsMetaThenOneObjectPerEvent)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeJsonl(os, collector);

    std::vector<std::string> lines = splitLines(os.str());
    ASSERT_GE(lines.size(), 5u);
    EXPECT_NE(lines[0].find("\"policy\""), std::string::npos)
        << "meta must be the first line";
    EXPECT_NE(lines[0].find("\"breakEven\""), std::string::npos);
    std::size_t events = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].front(), '{');
        EXPECT_EQ(lines[i].back(), '}');
        if (lines[i].find("\"kind\"") != std::string::npos)
            ++events;
    }
    EXPECT_EQ(events, collector.totalEvents());
}

TEST(Sink, JsonlFlagsTruncatedStreams)
{
    trace::Collector collector = makeSampleCollector(2);
    // Recorder 0 got 3 events into capacity 2: one was lost.
    EXPECT_EQ(collector.totalOverwritten(), 1u);
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    EXPECT_NE(os.str().find("\"truncated\":1"), std::string::npos)
        << "a wrapped ring must be flagged, not silently shortened";
}

TEST(Sink, ChromeTraceIsOneJsonDocument)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeChromeTrace(os, collector);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\""), std::string::npos);
}

TEST(Sink, EpochCsvStartsWithHeader)
{
    trace::Collector collector = makeSampleCollector();
    std::ostringstream os;
    trace::writeEpochCsv(os, collector);
    std::vector<std::string> lines = splitLines(os.str());
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("sm"), std::string::npos);
    EXPECT_NE(lines[0].find(','), std::string::npos);
}

TEST(Sink, FormatNamesRoundTrip)
{
    for (trace::SinkFormat f : {trace::SinkFormat::Chrome,
                                trace::SinkFormat::Jsonl,
                                trace::SinkFormat::Csv}) {
        trace::SinkFormat parsed;
        ASSERT_TRUE(trace::parseSinkFormat(trace::sinkFormatName(f),
                                           parsed));
        EXPECT_EQ(parsed, f);
    }
    trace::SinkFormat parsed;
    EXPECT_FALSE(trace::parseSinkFormat("protobuf", parsed));
}

TEST(Sink, EventToJsonCarriesIdentity)
{
    Event e;
    e.cycle = 1234;
    e.kind = EventKind::Gate;
    e.unit = 0;
    e.cluster = 1;
    e.arg = static_cast<std::uint8_t>(trace::GateReason::IdleDetect);
    e.value = 2;
    std::string json = trace::eventToJson(5, e);
    EXPECT_NE(json.find("\"sm\":5"), std::string::npos);
    EXPECT_NE(json.find("1234"), std::string::npos);
    EXPECT_NE(json.find(trace::eventKindName(EventKind::Gate)),
              std::string::npos);
}

TEST(Event, KindNamesRoundTrip)
{
    for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
        auto kind = static_cast<EventKind>(k);
        trace::EventKind parsed;
        ASSERT_TRUE(
            trace::parseEventKind(trace::eventKindName(kind), parsed))
            << trace::eventKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    trace::EventKind parsed;
    EXPECT_FALSE(trace::parseEventKind("not-a-kind", parsed));
}

} // namespace
} // namespace wg
