/**
 * @file
 * wgctl — client for the wgservd daemon.
 *
 * Usage: wgctl <command> --port N [flags]
 *
 *   submit   submit a sweep; with --wait, block and print the results
 *            exactly as `wgsim` would print them offline
 *   status   show one job (--id) or every job
 *   watch    stream a job live: per-cell epoch frames, progress with
 *            ETA, and the terminal result; --metrics re-exports the
 *            streamed bytes as a wgmetrics jsonl file (single-cell
 *            jobs) that is byte-identical to `wgsim --metrics`
 *   result   fetch and print a finished job's results
 *   checkpoint  snapshot a job (any state): its sweep plus every
 *            completed cell, as a document `submit --resume` replays —
 *            on this daemon or another one
 *   cancel   cancel a queued or running job
 *   stats    print the daemon's serve.* gauges
 *   drain    ask the daemon to finish everything and shut down
 *
 * Examples:
 *   wgctl submit --port 7421 --bench hotspot --technique WarpedGates \
 *         --wait
 *   wgctl submit --port 7421 --bench all --technique Baseline,GATES
 *   wgctl watch --port 7421 --id j1 --metrics live.jsonl
 *   wgctl checkpoint --port 7421 --id j1 --out job.ckpt.json
 *   wgctl submit --port 7422 --resume job.ckpt.json --wait
 *   wgctl status --port 7421
 *   wgctl drain --port 7421
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "report/export.hh"
#include "serve/client.hh"

namespace {

using namespace wg;

constexpr FlagSpec kFlags[] = {
    {"port", FlagKind::Int, "7421", "daemon port on loopback"},
    {"bench", FlagKind::String, "hotspot",
     "comma-separated benchmarks, or 'all' for the full suite"},
    {"technique", FlagKind::String, "WarpedGates",
     "comma-separated presets, or 'all': Baseline|ConvPG|GATES|"
     "NaiveBlackout|CoordBlackout|WarpedGates"},
    {"id", FlagKind::String, "",
     "job id (status/watch/result/cancel)"},
    {"priority", FlagKind::Int, "0", "submit priority (higher first)"},
    {"sms", FlagKind::Int, "6", "number of SMs to simulate"},
    {"seed", FlagKind::Int, "1", "experiment seed"},
    {"idle-detect", FlagKind::Int, "5", "idle-detect window (cycles)"},
    {"bet", FlagKind::Int, "14", "break-even time (cycles)"},
    {"wakeup", FlagKind::Int, "3", "wakeup delay (cycles)"},
    {"wait", FlagKind::Bool, "",
     "submit: wait for completion and print the results"},
    {"timeout-sec", FlagKind::Int, "600",
     "deadline for --wait / drain / slow responses"},
    {"quiet", FlagKind::Bool, "", "suppress the human-readable summary"},
    {"csv", FlagKind::String, "",
     "append CSV rows to this file (header only when new or empty)"},
    {"json", FlagKind::String, "",
     "write a JSON report to this file (single-cell results only)"},
    {"metrics", FlagKind::String, "",
     "write the final metric registry (jsonl) to this file "
     "(single-cell results only; wgreport-comparable)"},
    {"out", FlagKind::String, "",
     "checkpoint: write the job snapshot to this file (default "
     "stdout)"},
    {"resume", FlagKind::String, "",
     "submit: resubmit a job snapshot file (from `wgctl checkpoint`); "
     "its completed cells seed the daemon's cache so only unfinished "
     "cells recompute"},
};

/** Slurp @p path; @return false when the file cannot be read. */
bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
buildSpec(const ArgParser& args, SweepSpec& spec)
{
    std::vector<std::string> benches;
    if (args.getString("bench") == "all")
        benches = benchmarkNames();
    else
        benches = splitCommas(args.getString("bench"));

    std::vector<Technique> techniques;
    if (args.getString("technique") == "all") {
        techniques = allTechniques();
    } else {
        for (const std::string& name :
             splitCommas(args.getString("technique"))) {
            Technique t;
            if (!serve::wire::parseTechnique(name, t)) {
                std::fprintf(stderr, "wgctl: unknown technique '%s'\n",
                             name.c_str());
                return false;
            }
            techniques.push_back(t);
        }
    }

    // Options ride along explicitly so the daemon's own defaults can
    // never change what this command line means.
    ExperimentOptions opts;
    opts.numSms = static_cast<unsigned>(args.getInt("sms"));
    opts.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    opts.idleDetect = static_cast<Cycle>(args.getInt("idle-detect"));
    opts.breakEven = static_cast<Cycle>(args.getInt("bet"));
    opts.wakeupDelay = static_cast<Cycle>(args.getInt("wakeup"));

    spec = SweepSpec(std::move(benches), std::move(techniques), opts);
    return true;
}

/**
 * Print/export fetched cells exactly as wgsim does for an offline run
 * of the same sweep: per-cell summary, appended CSV rows, and the JSON
 * report and metrics registry of the only cell.
 */
int
emitCells(const ArgParser& args,
          const std::vector<serve::wire::ResultCell>& cells)
{
    std::string csv;
    for (const serve::wire::ResultCell& cell : cells) {
        if (!args.getBool("quiet"))
            printSummary(std::cout, cell.bench, cell.result);
        csv += toCsvRow(cell.bench, cell.result) + "\n";
    }
    if (args.given("csv")) {
        appendCsv(args.getString("csv"), csv);
        inform("appended to ", args.getString("csv"));
    }
    if ((args.given("json") || args.given("metrics")) &&
        cells.size() != 1) {
        std::fprintf(stderr,
                     "wgctl: --json/--metrics export one cell per file; "
                     "this job has %zu\n",
                     cells.size());
        return 1;
    }
    if (args.given("json")) {
        writeFile(args.getString("json"),
                  toJson(cells[0].bench, cells[0].result));
        inform("wrote ", args.getString("json"));
    }
    if (args.given("metrics")) {
        StatSet registry = metrics::toStatSet(cells[0].result);
        metrics::writeMetricsFile(args.getString("metrics"), nullptr,
                                  registry,
                                  metrics::MetricsFormat::Jsonl);
        inform("wrote ", args.getString("metrics"), " (",
               registry.entries().size(), " metrics)");
    }
    return 0;
}

void
printStatusTable(const std::vector<serve::JobStatus>& jobs)
{
    Table table("jobs");
    table.header({"id", "state", "prio", "cells", "submit#", "start#",
                  "error"});
    for (const serve::JobStatus& s : jobs) {
        table.row({s.id, serve::jobStateName(s.state),
                   std::to_string(s.priority),
                   std::to_string(s.completedCells) + "/" +
                       std::to_string(s.totalCells),
                   std::to_string(s.submitSeq),
                   std::to_string(s.startSeq), s.error});
    }
    table.print();
}

int
fail(const std::string& error)
{
    std::fprintf(stderr, "wgctl: %s\n", error.c_str());
    return 1;
}

/**
 * Stream one job live until its terminal result frame. With --metrics,
 * the meta/epoch/final `data` bytes are concatenated into a wgmetrics
 * jsonl file that is byte-identical to an offline `wgsim --metrics`
 * export of the same cell (single-cell jobs only — the jsonl format
 * holds exactly one series).
 */
int
watchJob(const ArgParser& args, serve::Client& client, int timeoutMs)
{
    if (!args.given("id"))
        return fail("watch requires --id");
    const std::string id = args.getString("id");
    const bool quiet = args.getBool("quiet");
    std::string error;
    if (!client.subscribe(id, error))
        return fail(error);
    std::string jsonl;
    std::size_t maxCell = 0;
    std::size_t epochFrames = 0;
    serve::Frame frame;
    for (;;) {
        if (!client.nextFrame(frame, timeoutMs, error))
            return fail(error);
        switch (frame.kind) {
          case serve::FrameKind::Meta:
            maxCell = std::max(maxCell, frame.cell);
            if (!quiet)
                std::printf("%s cell %zu: %s/%s\n", id.c_str(),
                            frame.cell, frame.bench.c_str(),
                            frame.technique.c_str());
            jsonl += frame.data;
            jsonl += '\n';
            break;
          case serve::FrameKind::Epoch:
            ++epochFrames;
            jsonl += frame.data;
            jsonl += '\n';
            break;
          case serve::FrameKind::Final:
            jsonl += frame.data;
            jsonl += '\n';
            break;
          case serve::FrameKind::Progress:
            if (!quiet) {
                if (frame.etaMs >= 0.0)
                    std::printf("%s %zu/%zu cells (eta %.0f ms)\n",
                                id.c_str(), frame.completedCells,
                                frame.totalCells, frame.etaMs);
                else
                    std::printf("%s %zu/%zu cells\n", id.c_str(),
                                frame.completedCells,
                                frame.totalCells);
            }
            break;
          case serve::FrameKind::Result: {
            if (!quiet)
                std::printf("%s %s (%zu epoch frames, %llu dropped)\n",
                            id.c_str(), frame.state.c_str(),
                            epochFrames,
                            static_cast<unsigned long long>(
                                frame.droppedFrames));
            const bool done = frame.state == "done";
            if (!done && !frame.error.empty())
                std::fprintf(stderr, "wgctl: %s\n",
                             frame.error.c_str());
            if (args.given("metrics")) {
                if (!done)
                    return fail("job " + id + " finished as " +
                                frame.state +
                                "; not writing --metrics");
                if (maxCell != 0)
                    return fail(
                        "--metrics exports one cell per file; job " +
                        id + " streamed " +
                        std::to_string(maxCell + 1) + " cells");
                if (frame.droppedFrames != 0)
                    return fail(
                        "stream dropped " +
                        std::to_string(frame.droppedFrames) +
                        " frames; --metrics export would be "
                        "incomplete");
                writeFile(args.getString("metrics"), jsonl);
                inform("wrote ", args.getString("metrics"), " (",
                       epochFrames, " epoch lines)");
            }
            return done ? 0 : 1;
          }
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgctl",
                   "client for the wgservd simulation daemon", kFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;
    if (args.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: wgctl "
                     "submit|status|watch|result|checkpoint|cancel|"
                     "stats|drain [flags]\n%s",
                     args.usage().c_str());
        return 2;
    }
    const std::string command = args.positional()[0];
    const int timeout_ms =
        static_cast<int>(args.getInt("timeout-sec")) * 1000;

    serve::Client client;
    std::string error;
    if (!client.connect(
            static_cast<std::uint16_t>(args.getInt("port")), 2000,
            error))
        return fail("cannot reach wgservd on port " +
                    std::to_string(args.getInt("port")) + ": " + error);
    client.setRequestTimeout(timeout_ms);

    if (command == "submit") {
        std::string id;
        bool deduped = false;
        if (args.given("resume")) {
            std::string text;
            if (!readFile(args.getString("resume"), text))
                return fail("cannot read " + args.getString("resume"));
            Json doc;
            std::uint64_t seeded = 0;
            if (!Json::parse(text, doc, error))
                return fail(args.getString("resume") + ": " + error);
            if (!client.submitSnapshot(
                    doc, static_cast<unsigned>(args.getInt("priority")),
                    id, deduped, seeded, error))
                return fail(args.getString("resume") + ": " + error);
            if (!args.getBool("quiet"))
                inform("seeded ", seeded, " completed cells from ",
                       args.getString("resume"));
        } else {
            SweepSpec spec({}, {});
            if (!buildSpec(args, spec))
                return 2;
            if (!client.submit(
                    spec, static_cast<unsigned>(args.getInt("priority")),
                    id, deduped, error))
                return fail(error);
        }
        if (!args.getBool("wait")) {
            std::printf("%s%s\n", id.c_str(),
                        deduped ? " (deduped)" : "");
            return 0;
        }
        serve::JobStatus status;
        if (!client.waitForJob(id, 100, timeout_ms, status, error))
            return fail(error);
        if (status.state != serve::JobState::Done)
            return fail("job " + id + " finished as " +
                        serve::jobStateName(status.state) +
                        (status.error.empty() ? "" : ": " + status.error));
        std::vector<serve::wire::ResultCell> cells;
        if (!client.results(id, cells, error))
            return fail(error);
        return emitCells(args, cells);
    }
    if (command == "status") {
        if (args.given("id")) {
            serve::JobStatus status;
            if (!client.status(args.getString("id"), status, error))
                return fail(error);
            printStatusTable({status});
            return 0;
        }
        std::vector<serve::JobStatus> jobs;
        if (!client.listJobs(jobs, error))
            return fail(error);
        printStatusTable(jobs);
        return 0;
    }
    if (command == "watch")
        return watchJob(args, client, timeout_ms);
    if (command == "result") {
        if (!args.given("id"))
            return fail("result requires --id");
        std::vector<serve::wire::ResultCell> cells;
        if (!client.results(args.getString("id"), cells, error))
            return fail(error);
        return emitCells(args, cells);
    }
    if (command == "checkpoint") {
        if (!args.given("id"))
            return fail("checkpoint requires --id");
        Json snapshot;
        if (!client.checkpoint(args.getString("id"), snapshot, error))
            return fail(error);
        const std::string text = snapshot.dump() + "\n";
        if (args.given("out")) {
            writeFile(args.getString("out"), text);
            inform("wrote ", args.getString("out"));
        } else {
            std::fputs(text.c_str(), stdout);
        }
        return 0;
    }
    if (command == "cancel") {
        if (!args.given("id"))
            return fail("cancel requires --id");
        if (!client.cancel(args.getString("id"), error))
            return fail(error);
        std::printf("cancelled %s\n", args.getString("id").c_str());
        return 0;
    }
    if (command == "stats") {
        std::map<std::string, double> stats;
        if (!client.stats(stats, error))
            return fail(error);
        Table table("wgservd gauges");
        table.header({"stat", "value"});
        for (const auto& [name, value] : stats)
            table.row({name, formatMetricValue(value)});
        table.print();
        return 0;
    }
    if (command == "drain") {
        if (!client.drain(timeout_ms, error))
            return fail(error);
        std::printf("drained\n");
        return 0;
    }
    std::fprintf(stderr, "wgctl: unknown command '%s'\n",
                 command.c_str());
    return 2;
}
