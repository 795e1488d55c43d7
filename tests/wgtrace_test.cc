// Tests for the wgtrace command-line checker: the real binary is run
// as a subprocess over traces the JSONL sink writes, so exit codes, the
// summary and the schema-version handling are covered end to end.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "trace/sink.hh"

namespace wg {
namespace {

using trace::EventKind;

constexpr std::uint8_t kLdst = 3;

struct ToolRun
{
    int exitCode = -1;
    std::string output;
};

ToolRun
runWgtrace(const std::string& args)
{
    const std::string cmd =
        std::string(WGTRACE_BINARY) + " " + args + " 2>&1";
    ToolRun run;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
        run.output.append(buf.data(), n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    return run;
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeFile(const std::string& name, const std::string& text)
{
    const std::string path = ::testing::TempDir() + "wgtrace_" + name;
    std::ofstream out(path);
    out << text;
    return path;
}

/** One SM under the paper's WarpedGates parameters. */
trace::Collector
makeCollector()
{
    trace::Collector collector;
    collector.prepare(1);
    trace::Meta& m = collector.meta;
    m.policy = "coordinated-blackout";
    m.scheduler = "gates";
    m.numSms = 1;
    m.idleDetect = 5;
    m.breakEven = 14;
    m.wakeupDelay = 3;
    m.idleDetectMin = 5;
    m.idleDetectMax = 10;
    m.epochLength = 1000;
    return collector;
}

std::string
jsonl(const trace::Collector& collector)
{
    std::ostringstream os;
    trace::writeJsonl(os, collector);
    return os.str();
}

TEST(Wgtrace, SummaryTotalsRejectAttempts)
{
    trace::Collector collector = makeCollector();
    trace::Recorder* r = collector.recorder(0);
    r->record(10, EventKind::Issue, 0, 0, 0, 4);
    r->record(10, EventKind::MshrReject, kLdst, trace::kNoCluster, 0, 3);
    r->record(11, EventKind::MshrReject, kLdst, trace::kNoCluster, 0, 2);
    const ToolRun run =
        runWgtrace("--check " + writeFile("v2.jsonl", jsonl(collector)));
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find("mshr-reject: 2 (5 attempts)"),
              std::string::npos)
        << run.output;
}

TEST(Wgtrace, TwoRejectEventsInOneCycleAreAViolation)
{
    trace::Collector collector = makeCollector();
    trace::Recorder* r = collector.recorder(0);
    r->record(10, EventKind::MshrReject, kLdst, trace::kNoCluster, 0, 1);
    r->record(10, EventKind::MshrReject, kLdst, trace::kNoCluster, 0, 1);
    const ToolRun run =
        runWgtrace("--check " + writeFile("dup.jsonl", jsonl(collector)));
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_NE(run.output.find("second mshr-reject"), std::string::npos)
        << run.output;
}

TEST(Wgtrace, ReadsVersionOneAsOneAttemptPerLine)
{
    // Schema version 1: one mshr-reject line per refused attempt,
    // carrying the outstanding-miss count instead of a count.
    const std::string text =
        "{\"meta\":{\"version\":1,\"policy\":\"coordinated-blackout\","
        "\"scheduler\":\"gates\",\"sms\":1,\"idleDetect\":5,"
        "\"breakEven\":14,\"wakeupDelay\":3,\"adaptive\":false}}\n"
        "{\"sm\":0,\"cycle\":10,\"kind\":\"mshr-reject\",\"unit\":\"LDST\"}\n"
        "{\"sm\":0,\"cycle\":10,\"kind\":\"mshr-reject\",\"unit\":\"LDST\"}\n"
        "{\"sm\":0,\"cycle\":10,\"kind\":\"mshr-reject\",\"unit\":\"LDST\"}\n";
    const ToolRun run = runWgtrace("--check " + writeFile("v1.jsonl", text));
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find("mshr-reject: 3 (3 attempts)"),
              std::string::npos)
        << run.output;
}

TEST(Wgtrace, RefusesUnknownSchemaVersion)
{
    trace::Collector collector = makeCollector();
    collector.meta.version = trace::kSchemaVersion + 1;
    const ToolRun run =
        runWgtrace(writeFile("future.jsonl", jsonl(collector)));
    EXPECT_EQ(run.exitCode, 2) << run.output;
    EXPECT_NE(run.output.find("schema version"), std::string::npos)
        << run.output;
}

TEST(Wgtrace, VersionTwoRejectWithoutAttemptsIsMalformed)
{
    trace::Collector collector = makeCollector();
    std::string text = jsonl(collector);
    text += "{\"sm\":0,\"cycle\":10,\"kind\":\"mshr-reject\","
            "\"unit\":\"LDST\"}\n";
    const ToolRun run = runWgtrace(writeFile("noattempts.jsonl", text));
    EXPECT_EQ(run.exitCode, 2) << run.output;
}

} // namespace
} // namespace wg
