#include "exporters.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace wg::metrics {

namespace {

/**
 * The epoch-sample columns, shared by the CSV header, the CSV rows and
 * the JSONL epoch objects so the two series formats cannot diverge.
 * The column order (each idle-detect gauge after its type's counters)
 * is not visitFields' JSON order, so the table stays explicit;
 * tests/fields_test.cc checks it names every EpochCounters member
 * exactly once.
 */
struct EpochField
{
    const char* name;
    std::uint64_t EpochCounters::*member;
};

constexpr EpochField kEpochFields[] = {
    {"issued", &EpochCounters::issued},
    {"intBusyCycles", &EpochCounters::intBusyCycles},
    {"intGatedCycles", &EpochCounters::intGatedCycles},
    {"intCompCycles", &EpochCounters::intCompCycles},
    {"intGatingEvents", &EpochCounters::intGatingEvents},
    {"intWakeups", &EpochCounters::intWakeups},
    {"intCriticalWakeups", &EpochCounters::intCriticalWakeups},
    {"intIdleDetect", &EpochCounters::intIdleDetect},
    {"fpBusyCycles", &EpochCounters::fpBusyCycles},
    {"fpGatedCycles", &EpochCounters::fpGatedCycles},
    {"fpCompCycles", &EpochCounters::fpCompCycles},
    {"fpGatingEvents", &EpochCounters::fpGatingEvents},
    {"fpWakeups", &EpochCounters::fpWakeups},
    {"fpCriticalWakeups", &EpochCounters::fpCriticalWakeups},
    {"fpIdleDetect", &EpochCounters::fpIdleDetect},
    {"memMisses", &EpochCounters::memMisses},
    {"mshrRejects", &EpochCounters::mshrRejects},
    {"wakeupRequests", &EpochCounters::wakeupRequests},
    {"activeAccum", &EpochCounters::activeAccum},
};

/** Visit every sample in SM-major, epoch-minor order. */
template <typename Fn>
void
forEachSample(const Collector& collector, Fn&& fn)
{
    for (SmId sm = 0; sm < collector.numSms(); ++sm) {
        const EpochSampler* sampler = collector.sampler(sm);
        if (!sampler)
            continue;
        for (const EpochSample& s : sampler->samples())
            fn(sm, s);
    }
}

/**
 * The # HELP catalogue, longest-prefix matched against dotted names.
 * Every registry namespace must appear here; the schema-drift guard
 * test fails the build when a new namespace ships without an entry.
 */
struct HelpEntry
{
    const char* prefix;
    const char* help;
};

constexpr HelpEntry kHelpCatalogue[] = {
    {"gpu.pg.",
     "power-gating counters per execution-unit cluster, aggregated"
     " across SMs"},
    {"gpu.energy.",
     "energy-model breakdown in joules (dynamic/static/overhead) per"
     " unit type"},
    {"gpu.sched.",
     "gating-aware scheduler counters (active-set size, priority"
     " switches, wakeup requests)"},
    {"gpu.mem.",
     "memory-path counters (hits, misses, stores, MSHR rejects)"},
    {"gpu.adaptive.",
     "adaptive idle-detect controller state and adjustment counts"},
    {"gpu.units.", "SFU/LDST issue and busy-cycle counters"},
    {"gpu.issued.", "instructions issued per execution-unit class"},
    {"gpu.", "whole-GPU aggregate counters (cycles, IPC, warps)"},
    {"sm", "per-SM cycle counts"},
    {"config.",
     "configuration echo of the run (SMs, seed, gating parameters)"},
    {"profile.",
     "wall-clock self-profiling of simulator phases and the thread"
     " pool"},
    {"serve.latency.",
     "wgservd job-latency summaries in seconds (full histograms on"
     " the /metrics exposition)"},
    {"serve.subscriptions.",
     "live-stream subscription counters (active, opened, dropped"
     " frames)"},
    {"serve.",
     "wgservd job-manager gauges (queue, jobs, cells, result cache)"},
    {"pool.",
     "shared thread-pool self-profiling (tasks, steals, queue depth,"
     " drain state)"},
};

const char*
findHelp(const std::string& name)
{
    const char* best = nullptr;
    std::size_t best_len = 0;
    for (const HelpEntry& e : kHelpCatalogue) {
        std::size_t len = std::char_traits<char>::length(e.prefix);
        if (len >= best_len && name.compare(0, len, e.prefix) == 0) {
            best = e.help;
            best_len = len;
        }
    }
    return best;
}

/** Short, round-number formatting for `le` labels (%g). */
std::string
formatLe(double bound)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", bound);
    return buf;
}

} // namespace

const char*
metricsFormatName(MetricsFormat format)
{
    switch (format) {
      case MetricsFormat::Csv: return "csv";
      case MetricsFormat::Jsonl: return "jsonl";
      case MetricsFormat::Prom: return "prom";
    }
    return "?";
}

bool
parseMetricsFormat(const std::string& name, MetricsFormat& out)
{
    for (MetricsFormat f : {MetricsFormat::Csv, MetricsFormat::Jsonl,
                            MetricsFormat::Prom}) {
        if (name == metricsFormatName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

std::string
formatMetricValue(double value)
{
    constexpr double kMaxExactInt = 9007199254740992.0; // 2^53
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < kMaxExactInt) {
        return std::to_string(static_cast<long long>(value));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
promName(const std::string& name)
{
    std::string out = "wg_";
    out.reserve(name.size() + 3);
    for (char c : name)
        out += c == '.' ? '_' : c;
    return out;
}

std::string
metricHelp(const std::string& name)
{
    const char* help = findHelp(name);
    return help != nullptr ? help : "uncatalogued simulator metric";
}

bool
metricHelpKnown(const std::string& name)
{
    return findHelp(name) != nullptr;
}

void
writePromGauges(std::ostream& os, const StatSet& set)
{
    for (const auto& [name, value] : set.entries()) {
        std::string pn = promName(name);
        os << "# HELP " << pn << ' ' << metricHelp(name) << '\n'
           << "# TYPE " << pn << " gauge\n"
           << pn << ' ' << formatMetricValue(value) << '\n';
    }
}

void
writePromHistogram(std::ostream& os, const std::string& name,
                   const std::string& help,
                   const LatencyHistogram& hist)
{
    std::string pn = promName(name);
    os << "# HELP " << pn << ' ' << help << '\n'
       << "# TYPE " << pn << " histogram\n";
    for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
        os << pn << "_bucket{le=\"" << formatLe(hist.bounds()[i])
           << "\"} " << hist.cumulative(i) << '\n';
    }
    os << pn << "_bucket{le=\"+Inf\"} " << hist.total() << '\n'
       << pn << "_sum " << formatMetricValue(hist.sum()) << '\n'
       << pn << "_count " << hist.total() << '\n';
}

void
writeProm(std::ostream& os, const StatSet& set)
{
    writePromGauges(os, set);
    os << "# EOF\n";
}

std::string
jsonlMetaLine(bool have_series, Cycle epoch_length,
              std::uint32_t num_sms)
{
    std::ostringstream os;
    os << "{\"type\":\"meta\",\"format\":\"wgmetrics\",\"version\":1";
    if (have_series) {
        os << ",\"epochLength\":" << epoch_length
           << ",\"numSms\":" << num_sms;
    }
    os << "}";
    return os.str();
}

std::string
jsonlEpochLine(SmId sm, const EpochSample& s)
{
    std::ostringstream os;
    os << "{\"type\":\"epoch\",\"sm\":" << sm
       << ",\"epoch\":" << s.epoch << ",\"cycleEnd\":" << s.cycleEnd
       << ",\"cycles\":" << s.cycles;
    for (const EpochField& f : kEpochFields)
        os << ",\"" << f.name << "\":" << s.delta.*f.member;
    os << "}";
    return os.str();
}

std::string
jsonlFinalLine(const StatSet& set)
{
    std::ostringstream os;
    os << "{\"type\":\"final\",\"stats\":{";
    bool first = true;
    for (const auto& [name, value] : set.entries()) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":" << formatMetricValue(value);
    }
    os << "}}";
    return os.str();
}

void
writeMetricsJsonl(std::ostream& os, const Collector* collector,
                  const StatSet& set)
{
    os << jsonlMetaLine(collector != nullptr,
                        collector ? collector->epochLength() : 0,
                        collector ? collector->numSms() : 0)
       << '\n';

    if (collector) {
        forEachSample(*collector, [&](SmId sm, const EpochSample& s) {
            os << jsonlEpochLine(sm, s) << '\n';
        });
    }

    os << jsonlFinalLine(set) << '\n';
}

void
writeMetricsCsv(std::ostream& os, const Collector* collector,
                const StatSet& set)
{
    os << "# wgmetrics v1";
    if (collector) {
        os << " epochLength=" << collector->epochLength()
           << " numSms=" << collector->numSms();
    }
    os << '\n';

    if (collector) {
        os << "sm,epoch,cycleEnd,cycles";
        for (const EpochField& f : kEpochFields)
            os << ',' << f.name;
        os << '\n';
        forEachSample(*collector, [&](SmId sm, const EpochSample& s) {
            os << sm << ',' << s.epoch << ',' << s.cycleEnd << ','
               << s.cycles;
            for (const EpochField& f : kEpochFields)
                os << ',' << s.delta.*f.member;
            os << '\n';
        });
    }

    os << "# final\nname,value\n";
    for (const auto& [name, value] : set.entries())
        os << name << ',' << formatMetricValue(value) << '\n';
}

void
writeMetrics(std::ostream& os, const Collector* collector,
             const StatSet& set, MetricsFormat format)
{
    switch (format) {
      case MetricsFormat::Csv:
        writeMetricsCsv(os, collector, set);
        return;
      case MetricsFormat::Jsonl:
        writeMetricsJsonl(os, collector, set);
        return;
      case MetricsFormat::Prom:
        writeProm(os, set);
        return;
    }
    panic("writeMetrics: bad format");
}

void
writeMetricsFile(const std::string& path, const Collector* collector,
                 const StatSet& set, MetricsFormat format)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    writeMetrics(out, collector, set, format);
    if (!out)
        fatal("write to '", path, "' failed");
}

} // namespace wg::metrics
