/**
 * @file
 * wgreport — offline comparison of two simulation metric files.
 *
 * Accepts any mix of wgmetrics files (jsonl/csv/prom, as written by
 * `wgsim --metrics`) and wgsim --json result documents; the format is
 * auto-detected per file. Prints a per-metric delta table and exits
 * non-zero when any metric moved beyond tolerance, so CI can gate on
 * perf/energy trajectory:
 *
 *   wgreport baseline.jsonl fresh.jsonl                # exact match
 *   wgreport baseline.jsonl fresh.jsonl --tol 1e-6     # FP headroom
 *   wgreport a.prom b.prom --tol-metric gpu.ipc=0.02
 *
 * Exit codes: 0 within tolerance, 1 regression(s), 2 usage error or
 * an input file that cannot be read or parsed (malformed or too deeply
 * nested JSON, a metrics file without its final section).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "metrics/compare.hh"
#include "metrics/loader.hh"

namespace {

using namespace wg;

/**
 * Parse `name=reltol[,name=reltol...]` into per-metric overrides.
 * @return false on malformed input.
 */
bool
parsePerMetric(const std::string& spec,
               std::map<std::string, double>& out)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        try {
            out[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
        } catch (...) {
            return false;
        }
        pos = comma + 1;
    }
    return true;
}

/** The whole command line, declaratively (drives parsing and --help). */
constexpr FlagSpec kFlags[] = {
    {"tol", FlagKind::Double, "0",
     "global relative tolerance (0 = exact match)"},
    {"abs-tol", FlagKind::Double, "1e-12",
     "absolute delta floor that never flags"},
    {"tol-metric", FlagKind::String, "",
     "per-metric overrides: name=reltol[,name=reltol...]"},
    {"all", FlagKind::Bool, "", "list unchanged metrics too"},
    {"profile", FlagKind::Bool, "",
     "compare profile.* wall-clock metrics as well (excluded by "
     "default: never reproducible)"},
    {"quiet", FlagKind::Bool, "", "suppress the table; exit status only"},
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgreport",
                   "compare two wgsim metric/result files "
                   "(usage: wgreport BASE TEST [flags])",
                   kFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;

    if (args.positional().size() != 2) {
        std::fprintf(stderr,
                     "wgreport: expected exactly two files "
                     "(BASE TEST), got %zu\n%s",
                     args.positional().size(), args.usage().c_str());
        return 2;
    }

    metrics::CompareOptions opts;
    opts.relTol = args.getDouble("tol");
    opts.absTol = args.getDouble("abs-tol");
    if (args.given("tol-metric") &&
        !parsePerMetric(args.getString("tol-metric"), opts.perMetric)) {
        std::fprintf(stderr, "wgreport: malformed --tol-metric '%s'\n",
                     args.getString("tol-metric").c_str());
        return 2;
    }
    if (args.getBool("profile"))
        opts.ignorePrefixes.clear();

    const std::string& base_path = args.positional()[0];
    const std::string& test_path = args.positional()[1];
    StatSet base;
    StatSet test;
    std::string error;
    if (!metrics::loadStatSet(base_path, base, error) ||
        !metrics::loadStatSet(test_path, test, error)) {
        std::fprintf(stderr, "wgreport: %s\n", error.c_str());
        return 2;
    }

    metrics::CompareReport report =
        metrics::compareStatSets(base, test, opts);

    if (!args.getBool("quiet")) {
        renderComparison(report, base_path, test_path,
                         args.getBool("all"))
            .print();
        std::cout << report.compared << " metrics compared, "
                  << report.changed << " changed, "
                  << report.regressions << " beyond tolerance\n";
    }
    return report.regressions == 0 ? 0 : 1;
}
