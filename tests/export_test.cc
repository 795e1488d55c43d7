/**
 * @file
 * Unit tests for the CSV/JSON result export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/presets.hh"
#include "report/export.hh"
#include "sim/gpu.hh"

namespace wg {
namespace {

SimResult
smallResult()
{
    ExperimentOptions opts;
    opts.numSms = 1;
    GpuConfig cfg = makeConfig(Technique::WarpedGates, opts);
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 200;
    p.residentWarps = 8;
    Gpu gpu(cfg);
    return gpu.run(p);
}

std::size_t
countChar(const std::string& s, char c)
{
    std::size_t n = 0;
    for (char x : s)
        if (x == c)
            ++n;
    return n;
}

TEST(Export, CsvRowMatchesHeaderArity)
{
    SimResult r = smallResult();
    std::string header = csvHeader();
    std::string row = toCsvRow("hotspot", r);
    EXPECT_EQ(countChar(header, ','), countChar(row, ','));
    EXPECT_EQ(row.rfind("hotspot,", 0), 0u);
}

TEST(Export, CsvRowCarriesConfig)
{
    SimResult r = smallResult();
    std::string row = toCsvRow("x", r);
    EXPECT_NE(row.find("gates"), std::string::npos);
    EXPECT_NE(row.find("coordinated-blackout"), std::string::npos);
}

TEST(Export, JsonIsStructurallySound)
{
    SimResult r = smallResult();
    std::string json = toJson("hotspot", r);
    // Balanced braces/brackets and the expected top-level keys.
    EXPECT_EQ(countChar(json, '{'), countChar(json, '}'));
    EXPECT_EQ(countChar(json, '['), countChar(json, ']'));
    for (const char* key :
         {"\"label\"", "\"config\"", "\"cycles\"", "\"int\"", "\"fp\"",
          "\"energy\"", "\"idle_histogram\"", "\"savings_ratio\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(Export, JsonEscapesLabel)
{
    SimResult r = smallResult();
    std::string json = toJson("we\"ird\\label", r);
    EXPECT_NE(json.find("we\\\"ird\\\\label"), std::string::npos);
}

TEST(Export, CsvAppendsWithOneHeader)
{
    SimResult r = smallResult();
    const std::string path = ::testing::TempDir() + "/wg_export_append.csv";
    std::remove(path.c_str());
    const std::string first = toCsvRow("first", r) + "\n";
    const std::string second = toCsvRow("second", r) + "\n";
    appendCsv(path, first);  // a new file gets the header
    appendCsv(path, second); // a non-empty one does not
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), csvHeader() + "\n" + first + second);

    writeFile(path, ""); // an empty file counts as new
    appendCsv(path, first);
    std::ifstream again(path);
    std::stringstream ss2;
    ss2 << again.rdbuf();
    EXPECT_EQ(ss2.str(), csvHeader() + "\n" + first);
    std::remove(path.c_str());
}

TEST(Export, WriteFileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/wg_export_test.csv";
    writeFile(path, "a,b\n1,2\n");
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "a,b\n1,2\n");
    std::remove(path.c_str());
}

TEST(ExportDeath, UnwritablePathIsFatal)
{
    EXPECT_EXIT(writeFile("/nonexistent-dir/foo.csv", "x"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace wg
