/**
 * @file
 * Wire-format tests: golden-pinned document shapes, lossless
 * round-trips, schema-version rejection, and documents of the wrong
 * shape that must produce clean errors (never aborts). The JSON model
 * itself is tested in json_test.
 *
 * Golden files live in tests/golden/. To regenerate after an
 * intentional schema change (bump wire::kSchemaVersion!):
 *   WG_REGEN_GOLDEN=1 ./wire_test
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "serve/snapshot.hh"
#include "serve/wire.hh"

namespace {

using namespace wg;

std::string
goldenPath(const std::string& name)
{
    return std::string(WG_GOLDEN_DIR) + "/" + name;
}

/** Read the golden, or (re)write it when WG_REGEN_GOLDEN is set. */
std::string
golden(const std::string& name, const std::string& actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("WG_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << actual;
        return actual;
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path
                           << " (run with WG_REGEN_GOLDEN=1)";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

ExperimentOptions
distinctiveOptions()
{
    ExperimentOptions opts;
    opts.numSms = 2;
    opts.seed = 7;
    opts.idleDetect = 9;
    opts.breakEven = 21;
    opts.wakeupDelay = 4;
    return opts;
}

/** One shared tiny simulation (serial; bit-identical to pooled). */
const SimResult&
tinyResult()
{
    static ExperimentRunner runner(distinctiveOptions(), nullptr);
    return runner.run("hotspot", Technique::WarpedGates);
}

TEST(WireGolden, OptionsDocIsPinned)
{
    Json doc = serve::wire::optionsDoc(distinctiveOptions());
    EXPECT_EQ(doc.dump(), golden("wire_options_v2.json", doc.dump()));
}

TEST(WireGolden, SweepDocIsPinned)
{
    SweepSpec spec({"hotspot", "sgemm"},
                   {Technique::Baseline, Technique::WarpedGates},
                   distinctiveOptions());
    Json doc = serve::wire::sweepDoc(spec);
    EXPECT_EQ(doc.dump(), golden("wire_sweep_v2.json", doc.dump()));
}

TEST(WireGolden, ResultDocIsPinned)
{
    Json doc = serve::wire::resultDoc(
        "hotspot", Technique::WarpedGates, distinctiveOptions(),
        tinyResult());
    EXPECT_EQ(doc.dump(),
              golden("wire_result_hotspot_v2.json", doc.dump()));
}

TEST(WireGolden, JobSnapshotDocIsPinned)
{
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   distinctiveOptions());
    std::vector<Json> cells;
    cells.push_back(serve::wire::resultDoc("hotspot",
                                           Technique::WarpedGates,
                                           distinctiveOptions(),
                                           tinyResult()));
    Json doc = serve::wire::jobSnapshotDoc("j1", spec, cells);
    EXPECT_EQ(doc.dump(),
              golden("wire_job_snapshot_v2.json", doc.dump()));
}

/**
 * The committed v1 goldens stay as back-compat fixtures: a build that
 * emits schema 2 must keep parsing every version-1 document.
 */
TEST(WireBackCompat, V1DocumentsStillParse)
{
    struct Case
    {
        const char* file;
        const char* type;
    };
    const Case kCases[] = {
        {"wire_options_v1.json", "options"},
        {"wire_sweep_v1.json", "sweep"},
        {"wire_result_hotspot_v1.json", "result"},
    };
    for (const Case& c : kCases) {
        std::ifstream in(goldenPath(c.file));
        ASSERT_TRUE(in.good()) << c.file;
        std::ostringstream os;
        os << in.rdbuf();
        Json doc;
        std::string error;
        ASSERT_TRUE(Json::parse(os.str(), doc, error))
            << c.file << ": " << error;
        EXPECT_EQ(doc.find("wire")->asU64(), 1u) << c.file;
        if (std::string(c.type) == "options") {
            ExperimentOptions out;
            EXPECT_TRUE(serve::wire::parseOptionsDoc(doc, out, error))
                << error;
            EXPECT_EQ(out.seed, distinctiveOptions().seed);
        } else if (std::string(c.type) == "sweep") {
            SweepSpec out({}, {});
            EXPECT_TRUE(serve::wire::parseSweepDoc(doc, out, error))
                << error;
            EXPECT_EQ(out.benches.size(), 2u);
        } else {
            serve::wire::ResultCell cell;
            EXPECT_TRUE(serve::wire::parseResultDoc(doc, cell, error))
                << error;
            StatSet original = metrics::toStatSet(tinyResult());
            StatSet rebuilt = metrics::toStatSet(cell.result);
            EXPECT_EQ(original.entries(), rebuilt.entries());
        }
    }
}

TEST(WireRoundTrip, JobSnapshotSurvivesExactly)
{
    SweepSpec spec({"hotspot"}, {Technique::WarpedGates},
                   distinctiveOptions());
    std::vector<Json> cells;
    cells.push_back(serve::wire::resultDoc("hotspot",
                                           Technique::WarpedGates,
                                           distinctiveOptions(),
                                           tinyResult()));
    Json doc = serve::wire::jobSnapshotDoc("j1", spec, cells);
    const std::string bytes = doc.dump();

    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(bytes, reparsed, error)) << error;
    std::string id;
    SweepSpec back({}, {});
    std::vector<serve::wire::ResultCell> parsed;
    ASSERT_TRUE(serve::wire::parseJobSnapshotDoc(reparsed, id, back,
                                                 parsed, error))
        << error;
    EXPECT_EQ(id, "j1");
    EXPECT_EQ(back.benches, spec.benches);
    EXPECT_EQ(back.techniques, spec.techniques);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].bench, "hotspot");
    StatSet original = metrics::toStatSet(tinyResult());
    StatSet rebuilt = metrics::toStatSet(parsed[0].result);
    EXPECT_EQ(original.entries(), rebuilt.entries());

    // Re-serializing the reparsed snapshot reproduces the bytes.
    std::vector<Json> cellsAgain;
    for (const Json& cell : reparsed.find("cells")->items())
        cellsAgain.push_back(Json(cell));
    EXPECT_EQ(
        serve::wire::jobSnapshotDoc(id, back, cellsAgain).dump(),
        bytes);
}

TEST(WireRoundTrip, OptionsSurviveExactly)
{
    ExperimentOptions opts = distinctiveOptions();
    Json doc = serve::wire::optionsDoc(opts);
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(), reparsed, error)) << error;
    ExperimentOptions back;
    ASSERT_TRUE(serve::wire::parseOptionsDoc(reparsed, back, error))
        << error;
    EXPECT_EQ(back.numSms, opts.numSms);
    EXPECT_EQ(back.seed, opts.seed);
    EXPECT_EQ(back.idleDetect, opts.idleDetect);
    EXPECT_EQ(back.breakEven, opts.breakEven);
    EXPECT_EQ(back.wakeupDelay, opts.wakeupDelay);
    // Serializing the reparsed document reproduces the bytes.
    EXPECT_EQ(reparsed.dump(), doc.dump());
}

TEST(WireRoundTrip, SweepSurvivesExactly)
{
    SweepSpec spec({"hotspot", "bfs"},
                   {Technique::Gates, Technique::ConvPG},
                   distinctiveOptions());
    Json doc = serve::wire::sweepDoc(spec);
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(), reparsed, error)) << error;
    SweepSpec back({}, {});
    ASSERT_TRUE(serve::wire::parseSweepDoc(reparsed, back, error))
        << error;
    EXPECT_EQ(back.benches, spec.benches);
    EXPECT_EQ(back.techniques, spec.techniques);
    ASSERT_TRUE(back.options.has_value());
    EXPECT_EQ(back.options->seed, spec.options->seed);
    EXPECT_EQ(serve::wire::sweepDoc(back).dump(), doc.dump());
}

TEST(WireRoundTrip, SweepWithoutOptionsOmitsThem)
{
    SweepSpec spec({"hotspot"}, {Technique::Baseline});
    Json doc = serve::wire::sweepDoc(spec);
    EXPECT_EQ(doc.dump().find("options"), std::string::npos);
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(), reparsed, error)) << error;
    SweepSpec back({}, {});
    ASSERT_TRUE(serve::wire::parseSweepDoc(reparsed, back, error));
    EXPECT_FALSE(back.options.has_value());
}

TEST(WireRoundTrip, ResultSurvivesToTheLastBit)
{
    const SimResult& r = tinyResult();
    Json doc = serve::wire::resultDoc(
        "hotspot", Technique::WarpedGates, distinctiveOptions(), r);
    const std::string bytes = doc.dump();

    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(bytes, reparsed, error)) << error;
    serve::wire::ResultCell cell;
    ASSERT_TRUE(serve::wire::parseResultDoc(reparsed, cell, error))
        << error;
    EXPECT_EQ(cell.bench, "hotspot");
    EXPECT_EQ(cell.technique, Technique::WarpedGates);

    // The strongest equality the project has: the full metric registry
    // of the reconstructed result matches the original exactly (the
    // same check `wgreport --tol 0` performs on exported files).
    StatSet original = metrics::toStatSet(r);
    StatSet rebuilt = metrics::toStatSet(cell.result);
    EXPECT_EQ(original.entries(), rebuilt.entries());

    // Derived exports are byte-identical too.
    EXPECT_EQ(toCsvRow("hotspot", cell.result), toCsvRow("hotspot", r));
    EXPECT_EQ(toJson("hotspot", cell.result), toJson("hotspot", r));

    // And re-serializing reproduces the wire bytes.
    Json again = serve::wire::resultDoc(
        cell.bench, cell.technique, cell.options, cell.result);
    EXPECT_EQ(again.dump(), bytes);
}

TEST(WireVersion, MismatchIsRejectedCleanly)
{
    ExperimentOptions opts;
    Json doc = serve::wire::optionsDoc(opts);
    doc.set("wire", Json::number(std::uint64_t(3)));
    std::string error;
    ExperimentOptions out;
    EXPECT_FALSE(serve::wire::parseOptionsDoc(doc, out, error));
    EXPECT_NE(error.find("unsupported schema version 3"),
              std::string::npos)
        << error;
}

TEST(WireVersion, WrongTypeIsRejected)
{
    Json doc = serve::wire::optionsDoc(ExperimentOptions{});
    std::string error;
    SweepSpec out({}, {});
    EXPECT_FALSE(serve::wire::parseSweepDoc(doc, out, error));
    EXPECT_NE(error.find("expected 'sweep'"), std::string::npos)
        << error;
}

/** Structurally valid JSON that must fail document parsing. */
TEST(WireMalformed, DocumentsRejectWrongShapes)
{
    struct Case
    {
        const char* text;
        const char* needle; ///< must appear in the error
    };
    const Case kCases[] = {
        {"[]", "expected an object"},
        {"{\"type\":\"sweep\"}", "missing schema version"},
        {"{\"wire\":1}", "missing member 'type'"},
        {"{\"wire\":1,\"type\":\"sweep\"}", "missing member 'sweep'"},
        {"{\"wire\":1,\"type\":\"sweep\",\"sweep\":{\"benches\":[],"
         "\"techniques\":[\"Baseline\"]}}",
         "must not be empty"},
        {"{\"wire\":1,\"type\":\"sweep\",\"sweep\":{\"benches\":"
         "[\"hotspot\"],\"techniques\":[\"NoSuchThing\"]}}",
         "unknown technique"},
        {"{\"wire\":1,\"type\":\"sweep\",\"sweep\":{\"benches\":[42],"
         "\"techniques\":[\"Baseline\"]}}",
         "expected a string"},
        {"{\"wire\":1,\"type\":\"sweep\",\"sweep\":{\"benches\":"
         "[\"hotspot\"],\"techniques\":[\"Baseline\"],\"options\":"
         "{\"numSms\":0,\"seed\":1,\"idleDetect\":5,\"breakEven\":14,"
         "\"wakeupDelay\":3}}}",
         "must be in [1, 4096]"},
        {"{\"wire\":1,\"type\":\"sweep\",\"sweep\":{\"benches\":"
         "[\"hotspot\"],\"techniques\":[\"Baseline\"],\"options\":"
         "{\"numSms\":-3,\"seed\":1,\"idleDetect\":5,\"breakEven\":14,"
         "\"wakeupDelay\":3}}}",
         "non-negative"},
    };
    for (const Case& c : kCases) {
        Json doc;
        std::string error;
        ASSERT_TRUE(Json::parse(c.text, doc, error)) << c.text;
        SweepSpec out({}, {});
        EXPECT_FALSE(serve::wire::parseSweepDoc(doc, out, error))
            << "accepted: " << c.text;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << "error was: " << error << "\nfor: " << c.text;
    }
}

TEST(WireMalformed, ResultDocRejectsCorruption)
{
    Json doc = serve::wire::resultDoc(
        "hotspot", Technique::WarpedGates, distinctiveOptions(),
        tinyResult());
    const std::string bytes = doc.dump();

    // Truncations at many byte offsets: parse or doc-check must fail
    // cleanly (this also covers mid-token and mid-string cuts).
    for (std::size_t cut = 1; cut + 1 < bytes.size();
         cut += bytes.size() / 97 + 1) {
        Json out;
        std::string error;
        if (Json::parse(bytes.substr(0, cut), out, error)) {
            serve::wire::ResultCell cell;
            EXPECT_FALSE(
                serve::wire::parseResultDoc(out, cell, error));
        }
        EXPECT_FALSE(error.empty());
    }

    // Field-level corruption.
    auto corrupt = [&](const std::string& from, const std::string& to,
                       const char* needle) {
        std::string mutated = bytes;
        std::size_t at = mutated.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        mutated.replace(at, from.size(), to);
        Json out;
        std::string error;
        ASSERT_TRUE(Json::parse(mutated, out, error)) << error;
        serve::wire::ResultCell cell;
        EXPECT_FALSE(serve::wire::parseResultDoc(out, cell, error))
            << "accepted corruption of " << from;
        EXPECT_NE(error.find(needle), std::string::npos)
            << "error was: " << error;
    };
    corrupt("\"technique\":\"WarpedGates\"",
            "\"technique\":\"Warped\"", "unknown technique");
    corrupt("\"cycles\":", "\"cycles\":true,\"was\":", "expected a "
                                                       "non-negative");
    corrupt("\"completed\":", "\"completed\":1,\"was\":",
            "expected a boolean");
    // Histogram whose total disagrees with its bins.
    {
        std::string mutated = bytes;
        std::size_t at = mutated.find("\"total\":");
        ASSERT_NE(at, std::string::npos);
        mutated.replace(at, 8, "\"total\":999999999,\"x\":");
        Json out;
        std::string error;
        ASSERT_TRUE(Json::parse(mutated, out, error)) << error;
        serve::wire::ResultCell cell;
        EXPECT_FALSE(serve::wire::parseResultDoc(out, cell, error));
        EXPECT_NE(error.find("total does not equal"),
                  std::string::npos)
            << error;
    }
}

TEST(WireCanonicalKey, DistinguishesSpecs)
{
    SweepSpec a({"hotspot"}, {Technique::Baseline});
    SweepSpec b({"hotspot"}, {Technique::Baseline});
    SweepSpec c({"hotspot"}, {Technique::WarpedGates});
    SweepSpec d({"hotspot"}, {Technique::Baseline},
                ExperimentOptions{});
    EXPECT_EQ(serve::wire::canonicalKey(a),
              serve::wire::canonicalKey(b));
    EXPECT_NE(serve::wire::canonicalKey(a),
              serve::wire::canonicalKey(c));
    EXPECT_NE(serve::wire::canonicalKey(a),
              serve::wire::canonicalKey(d));
}

} // namespace
