/**
 * @file
 * Schema-drift guard: the report/export CSV columns and JSON keys must
 * stay in lock-step with the metrics registry (metrics::toStatSet).
 * Both export paths declare their schema (csvSchema/jsonSchema) as
 * column -> registry-name mappings; this test runs one simulation and
 * cross-checks every mapped field's exported value against the
 * registry, so a metric added to one layer but not the other — or
 * renamed on one side only — fails here instead of silently diverging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/loader.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "sim/gpu.hh"

namespace wg {
namespace {

SimResult
smallRun()
{
    ExperimentOptions opts;
    opts.numSms = 2;
    Gpu gpu(makeConfig(Technique::WarpedGates, opts));
    BenchmarkProfile p = findBenchmark("hotspot");
    p.kernelLength = 400;
    p.residentWarps = 16;
    return gpu.run(p, nullptr);
}

/** Split one CSV line on commas (the exports never quote cells). */
std::vector<std::string>
splitCsv(const std::string& line)
{
    std::vector<std::string> cells;
    std::size_t pos = 0;
    while (true) {
        std::size_t comma = line.find(',', pos);
        if (comma == std::string::npos) {
            cells.push_back(line.substr(pos));
            return cells;
        }
        cells.push_back(line.substr(pos, comma - pos));
        pos = comma + 1;
    }
}

TEST(ExportSchema, CsvHeaderIsGeneratedFromSchema)
{
    std::string expected;
    for (const ExportField& f : csvSchema()) {
        if (!expected.empty())
            expected += ',';
        expected += f.column;
    }
    EXPECT_EQ(csvHeader(), expected);
}

TEST(ExportSchema, CsvRowMatchesRegistry)
{
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);

    std::vector<std::string> cells = splitCsv(toCsvRow("hotspot", r));
    const std::vector<ExportField>& schema = csvSchema();
    // Every column is declared; a row/schema length mismatch means a
    // column was added to toCsvRow without declaring it (or vice
    // versa).
    ASSERT_EQ(cells.size(), schema.size());

    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].metric.empty())
            continue; // identification column (label, policy names)
        ASSERT_TRUE(registry.has(schema[i].metric))
            << "csv column '" << schema[i].column
            << "' maps to unknown registry name '" << schema[i].metric
            << "'";
        // Round-trip formatting: the cell reads back exactly.
        EXPECT_EQ(std::strtod(cells[i].c_str(), nullptr),
                  registry.get(schema[i].metric))
            << schema[i].column << " vs " << schema[i].metric;
    }
}

TEST(ExportSchema, JsonKeysMatchRegistry)
{
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);

    StatSet flat;
    std::string error;
    ASSERT_TRUE(metrics::flattenJson(toJson("hotspot", r), flat, error))
        << error;

    for (const ExportField& f : jsonSchema()) {
        ASSERT_TRUE(flat.has(f.column))
            << "json schema lists absent key '" << f.column << "'";
        ASSERT_TRUE(registry.has(f.metric))
            << "json key '" << f.column
            << "' maps to unknown registry name '" << f.metric << "'";
        EXPECT_EQ(flat.get(f.column), registry.get(f.metric))
            << f.column << " vs " << f.metric;
    }
}

TEST(ExportSchema, EveryNumericJsonLeafIsDeclared)
{
    // The completeness direction: adding a numeric key to toJson
    // without giving it a registry twin must fail. Histogram bins are
    // the one sanctioned exception (the registry keeps scalars only).
    SimResult r = smallRun();
    StatSet flat;
    std::string error;
    ASSERT_TRUE(metrics::flattenJson(toJson("hotspot", r), flat, error))
        << error;

    std::vector<std::string> declared;
    for (const ExportField& f : jsonSchema())
        declared.push_back(f.column);

    for (const auto& [key, value] : flat.entries()) {
        (void)value;
        if (key.find("idle_histogram") != std::string::npos)
            continue;
        EXPECT_NE(std::find(declared.begin(), declared.end(), key),
                  declared.end())
            << "numeric JSON key '" << key
            << "' has no jsonSchema entry";
    }
}

TEST(ExportSchema, EveryRegistryMetricHasCataloguedHelp)
{
    // Every name a real simulation registers must resolve to a
    // catalogued # HELP string; a new metric family added without a
    // catalogue entry fails here instead of shipping the generic
    // "uncatalogued" text to scrape consumers.
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        EXPECT_TRUE(metrics::metricHelpKnown(name))
            << "metric '" << name << "' has no # HELP catalogue entry";
    }
}

TEST(ExportSchema, PromExpositionCarriesHelpAndTypePerMetric)
{
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    std::ostringstream os;
    metrics::writeProm(os, registry);
    const std::string text = os.str();
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        const std::string pn = metrics::promName(name);
        EXPECT_NE(text.find("# HELP " + pn + " "), std::string::npos)
            << "no # HELP line for " << pn;
        EXPECT_NE(text.find("# TYPE " + pn + " gauge\n"),
                  std::string::npos)
            << "no # TYPE line for " << pn;
    }
    EXPECT_NE(text.find("# EOF\n"), std::string::npos);
}

TEST(ExportSchema, PromNameMappingStaysBijective)
{
    // The '.' -> '_' mapping is invertible only while registry names
    // keep '_' out (lint rule D4); a collision between two registered
    // names would corrupt scrape round-trips.
    SimResult r = smallRun();
    StatSet registry = metrics::toStatSet(r);
    std::vector<std::string> mapped;
    for (const auto& [name, value] : registry.entries()) {
        (void)value;
        EXPECT_EQ(name.find('_'), std::string::npos)
            << "registry name '" << name << "' contains '_'";
        mapped.push_back(metrics::promName(name));
    }
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(std::adjacent_find(mapped.begin(), mapped.end()),
              mapped.end())
        << "two registry names map to the same Prometheus name";
}

} // namespace
} // namespace wg
