/**
 * @file
 * wgbench: the repository benchmark program.
 *
 *   wgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           --digests <file> [--spans <file>]
 *   wgbench --write-digests <file>
 *   wgbench --calibrate 1
 *   wgbench --suite-pass 1 --seed <n> --digests <file>
 *
 * --trace 0 runs one workload and reports the six end-to-end metrics.
 * --trace 1 is the separate span-traced run: it drives every layer on
 * the workload that exercises it (each workload's fixed trace probe,
 * whatever --workload names), reports the per-layer metrics and each
 * probe's span overhead, and writes the spans to --spans.
 * --calibrate 1 only times the two host calibration loops (helpers.hh).
 * --suite-pass 1 runs one suite_sweep pass; suite_sweep starts one such
 * process per pass.
 *
 * Human-readable lines go first; the last line of standard output is
 * the JSON result object.
 */

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "metrics/exporters.hh"
#include "workloads.hh"

namespace {

using namespace wgbench;

int
usage(const std::string& why)
{
    std::cerr << "wgbench: " << why << "\n"
              << "usage: wgbench --workload "
                 "<suite_sweep|event_trace|served_mix|checkpoint_chain>\n"
                 "               --seed <n> --seconds <s> --trace <0|1>\n"
                 "               --digests <file> [--spans <file>]\n"
                 "       wgbench --write-digests <file>\n"
                 "       wgbench --calibrate 1\n"
                 "       wgbench --suite-pass 1 --seed <n> --digests "
                 "<file>\n";
    return 2;
}

void
print(const Report& report)
{
    for (const std::string& n : report.notes)
        std::cout << "# " << n << "\n";
    for (const std::string& e : report.errors)
        std::cout << "# FAILED: " << e << "\n";
    for (const Metric& m : report.metrics)
        std::cout << m.name << " " << wg::metrics::formatMetricValue(m.value)
                  << " " << m.unit << "\n";
    std::cout << report.jsonLine() << std::endl;
}

} // namespace

int
main(int argc, char** argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage("bad argument '" + flag + "'");
        flags[flag.substr(2)] = argv[++i];
    }

    if (flags.count("calibrate")) {
        const HostCalibration c = hostCalibration();
        std::cout << "cpu " << c.cpuMs << " ms, memory " << c.memoryMs
                  << " ms\n";
        return 0;
    }

    if (flags.count("write-digests")) {
        std::string error;
        if (!writeSuiteDigests(flags["write-digests"], error)) {
            std::cerr << "wgbench: " << error << "\n";
            return 1;
        }
        return 0;
    }

    const bool pass = flags.count("suite-pass") > 0;
    const std::vector<const char*> required =
        pass ? std::vector<const char*>{"seed"}
             : std::vector<const char*>{"workload", "seed", "seconds",
                                        "trace"};
    for (const char* flag : required)
        if (!flags.count(flag))
            return usage(std::string("missing --") + flag);
    RunArgs args;
    try {
        args.seed = std::stoull(flags["seed"]);
        if (!pass)
            args.seconds = std::stod(flags["seconds"]);
    } catch (const std::exception&) {
        return usage("--seed and --seconds must be numbers");
    }
    args.digestPath = flags["digests"];
    if (pass)
        return runSuitePass(args);
    const std::string workload = flags["workload"];
    const std::string trace = flags["trace"];
    if (trace != "0" && trace != "1")
        return usage("--trace must be 0 or 1");

    using Run = void (*)(const RunArgs&, Report&);
    using Trace = void (*)(const RunArgs&, SpanLog&, Report&);
    const std::map<std::string, std::pair<Run, Trace>> workloads = {
        {"suite_sweep", {runSuiteSweep, traceSuiteSweep}},
        {"event_trace", {runEventTrace, traceEventTrace}},
        {"served_mix", {runServedMix, traceServedMix}},
        {"checkpoint_chain", {runCheckpointChain, traceCheckpointChain}},
    };
    auto it = workloads.find(workload);
    if (it == workloads.end())
        return usage("unknown workload '" + workload + "'");

    Report report;
    if (trace == "0") {
        it->second.first(args, report);
    } else {
        SpanLog spans;
        for (const auto& [name, fns] : workloads)
            fns.second(args, spans, report);
        if (flags.count("spans")) {
            std::ofstream out(flags["spans"]);
            spans.write(out);
            if (!out)
                report.errors.push_back("cannot write spans to " +
                                        flags["spans"]);
        }
    }
    print(report);
    return 0;
}
