#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <sched.h>

#include "helpers.hh"

namespace wgbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenRanksAndCountsBeyond)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    Quantile p50 = quantile(v, 0.5);
    EXPECT_DOUBLE_EQ(p50.value, 2.5);
    EXPECT_EQ(p50.samples, 4u);
    EXPECT_EQ(p50.beyond, 2u);

    Quantile p95 = quantile(v, 0.95);
    EXPECT_DOUBLE_EQ(p95.value, 3.85);
    EXPECT_EQ(p95.beyond, 1u);

    Quantile max = quantile(v, 1.0);
    EXPECT_DOUBLE_EQ(max.value, 4.0);
    EXPECT_EQ(max.beyond, 0u);

    EXPECT_DOUBLE_EQ(quantile(v, 0.0).value, 1.0);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(QuantileTest, EmptyAndSingleSamples)
{
    Quantile empty = quantile({}, 0.5);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.value, 0.0);

    Quantile one = quantile({7.0}, 0.95);
    EXPECT_DOUBLE_EQ(one.value, 7.0);
    EXPECT_EQ(one.samples, 1u);
    EXPECT_EQ(one.beyond, 0u);
}

TEST(QuantileTest, TiesAreNotBeyond)
{
    Quantile q = quantile({1.0, 2.0, 2.0, 2.0, 9.0}, 0.5);
    EXPECT_DOUBLE_EQ(q.value, 2.0);
    EXPECT_EQ(q.beyond, 1u);
}

TEST(CountingStreamTest, CountsEveryWriteKind)
{
    CountingStream os;
    os << "abc";            // 3
    os << 12345;            // 5
    os.put('x');            // 1
    os.write("0123456789", 10);
    const std::string big(100000, 'z');
    os << big;
    EXPECT_TRUE(os.good());
    EXPECT_EQ(os.bytes(), 3u + 5u + 1u + 10u + big.size());
}

TEST(DigestTest, MatchesFnv1aReferenceValues)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(DigestTest, DigestsNameValueLinesInNameOrder)
{
    wg::StatSet set;
    set.set("b", 0.1);
    set.set("a", 2.0);
    // Integers print exactly, other values at round-trip precision.
    EXPECT_EQ(statDigest(set), fnv1a("a=2\nb=0.10000000000000001\n"));
    EXPECT_EQ(statDigest(wg::StatSet{}), fnv1a(""));

    wg::StatSet changed = set;
    changed.set("b", 0.1000000000000001);
    EXPECT_NE(statDigest(changed), statDigest(set));
}

TEST(DigestTest, HexIsSixteenDigits)
{
    EXPECT_EQ(digestHex(0x1ULL), "0000000000000001");
    EXPECT_EQ(digestHex(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
}

TEST(DigestTest, LoadsStoredDigestsAndRejectsMalformedLines)
{
    const std::string path = testing::TempDir() + "wgbench_digests.txt";
    {
        std::ofstream out(path);
        out << "# comment\n\n2 hotspot WarpedGates 00000000000000ff\n";
    }
    std::map<std::string, std::string> digests;
    std::string error;
    ASSERT_TRUE(loadDigests(path, digests, error)) << error;
    ASSERT_EQ(digests.size(), 1u);
    EXPECT_EQ(digests.at(digestKey(2, "hotspot", "WarpedGates")),
              "00000000000000ff");

    {
        std::ofstream out(path);
        out << "2 hotspot WarpedGates ff\n";
    }
    digests.clear();
    EXPECT_FALSE(loadDigests(path, digests, error));
    EXPECT_NE(error.find(":1:"), std::string::npos);
    EXPECT_FALSE(loadDigests(path + ".missing", digests, error));
}

TEST(ReportTest, JsonLineCountsFailuresAndFlagsIncorrect)
{
    Report r;
    r.add("latency_ms", 1.25, "ms");
    r.check(true, "");
    EXPECT_EQ(r.jsonLine(),
              "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":"
              "{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}");
    r.check(false, "mismatch");
    EXPECT_EQ(r.failed, 1u);
    EXPECT_EQ(r.jsonLine().rfind("{\"correct\":false,\"attempted\":2,"
                                 "\"failed\":1,",
                                 0),
              0u);
}

TEST(SpanLogTest, NestsSpansAndIgnoresNullLog)
{
    Span untraced(nullptr, "x");
    EXPECT_EQ(untraced.id(), 0u);

    SpanLog log;
    {
        Span outer(&log, "outer");
        Span inner(&log, "inner", outer.id());
        EXPECT_EQ(inner.id(), outer.id() + 1);
        EXPECT_TRUE(log.durations("outer").empty()); // still open
    }
    EXPECT_EQ(log.durations("outer").size(), 1u);
    EXPECT_GE(log.total("outer"), log.total("inner"));

    std::ostringstream os;
    log.write(os);
    EXPECT_NE(os.str().find("\"name\":\"inner\",\"id\":2,\"parent\":1"),
              std::string::npos);
}

TEST(SetupTest, RotatesRepetitionsAndRestoresAffinity)
{
    cpu_set_t before;
    ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
    int setups = 0, teardowns = 0;
    std::set<int> cpus;
    const double s = medianSetupSeconds(
        8,
        [&] {
            ++setups;
            cpus.insert(sched_getcpu());
        },
        [&] { ++teardowns; });
    EXPECT_EQ(setups, 8);
    EXPECT_EQ(teardowns, 8);
    EXPECT_GE(s, 0.0);
    EXPECT_EQ(cpus.size(), std::min<std::size_t>(8, hostCpus()));
    cpu_set_t after;
    ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(CalibrationTest, TimesBothFixedLoops)
{
    const HostCalibration c = hostCalibration();
    EXPECT_GT(c.cpuMs, 0.0);
    EXPECT_GT(c.memoryMs, 0.0);
    EXPECT_LT(c.cpuMs + c.memoryMs, 60000.0);
}

} // namespace
} // namespace wgbench
