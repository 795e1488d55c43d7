#include "export.hh"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "metrics/registry.hh"

namespace wg {

namespace {

Json
histogramJson(const Histogram& h)
{
    Json bins = Json::array();
    for (std::uint64_t b = 0; b <= h.maxBin(); ++b)
        bins.append(Json::number(h.bin(b)));
    Json out = Json::object();
    out.set("bins", std::move(bins));
    out.set("overflow", Json::number(h.overflow()));
    out.set("total", Json::number(h.total()));
    out.set("sum", Json::number(h.sum()));
    return out;
}

/** Set the member at dotted @p path, creating objects on the way. */
void
setPath(Json& root, const std::string& path, Json value)
{
    Json* node = &root;
    std::size_t start = 0;
    for (std::size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', start)) {
        const std::string key = path.substr(start, dot - start);
        if (node->find(key) == nullptr)
            node->set(key, Json::object());
        node = node->find(key);
        start = dot + 1;
    }
    node->set(path.substr(start), std::move(value));
}

} // namespace

const std::vector<ExportField>&
csvSchema()
{
    // Column order is the wire format; toCsvRow emits in this order.
    static const std::vector<ExportField> schema = {
        {"label", ""},
        {"scheduler", ""},
        {"pg_policy", ""},
        {"adaptive", "config.adaptive"},
        {"num_sms", "config.numSms"},
        {"cycles", "gpu.cycles"},
        {"ipc", "gpu.ipc"},
        {"avg_active_warps", "gpu.avgActiveWarps"},
        {"int_busy_frac", "gpu.pg.int.busyFraction"},
        {"fp_busy_frac", "gpu.pg.fp.busyFraction"},
        {"int_static_savings", "gpu.energy.int.savingsRatio"},
        {"fp_static_savings", "gpu.energy.fp.savingsRatio"},
        {"int_wakeups", "gpu.pg.int.wakeups"},
        {"fp_wakeups", "gpu.pg.fp.wakeups"},
        {"int_critical", "gpu.pg.int.criticalWakeups"},
        {"fp_critical", "gpu.pg.fp.criticalWakeups"},
        {"int_gating_events", "gpu.pg.int.gatingEvents"},
        {"fp_gating_events", "gpu.pg.fp.gatingEvents"},
        {"mem_misses", "gpu.mem.misses"},
    };
    return schema;
}

const std::vector<ExportField>&
jsonSchema()
{
    static const std::vector<ExportField> schema = [] {
        std::vector<ExportField> s = {
            {"config.adaptive", "config.adaptive"},
            {"config.idle_detect", "config.idleDetect"},
            {"config.break_even", "config.breakEven"},
            {"config.wakeup_delay", "config.wakeupDelay"},
            {"config.num_sms", "config.numSms"},
            {"cycles", "gpu.cycles"},
            {"total_sm_cycles", "gpu.totalSmCycles"},
            {"ipc", "gpu.ipc"},
            {"avg_active_warps", "gpu.avgActiveWarps"},
            {"instructions", "gpu.instructions"},
        };
        // Per unit type: <type>.stats.* from gpu.pg.<type>.* and
        // <type>.energy.* from gpu.energy.<type>.*.
        const ExportField kStats[] = {
            {"busy", "busyCycles"},
            {"idle_on", "idleOnCycles"},
            {"uncomp", "uncompCycles"},
            {"comp", "compCycles"},
            {"wakeup_cycles", "wakeupCycles"},
            {"gating_events", "gatingEvents"},
            {"wakeups", "wakeups"},
            {"uncomp_wakeups", "uncompWakeups"},
            {"critical_wakeups", "criticalWakeups"},
        };
        const ExportField kEnergy[] = {
            {"dynamic_j", "dynamicJ"},
            {"static_j", "staticJ"},
            {"overhead_j", "overheadJ"},
            {"static_saved_j", "staticSavedJ"},
            {"static_no_pg_j", "staticNoPgJ"},
            {"savings_ratio", "savingsRatio"},
        };
        for (const std::string type : {"int", "fp"}) {
            for (const ExportField& f : kStats)
                s.push_back({type + ".stats." + f.column,
                             "gpu.pg." + type + "." + f.metric});
            for (const ExportField& f : kEnergy)
                s.push_back({type + ".energy." + f.column,
                             "gpu.energy." + type + "." + f.metric});
        }
        return s;
    }();
    return schema;
}

std::string
csvHeader()
{
    std::string header;
    for (const ExportField& f : csvSchema()) {
        if (!header.empty())
            header += ',';
        header += f.column;
    }
    return header;
}

std::string
toCsvRow(const std::string& label, const SimResult& r)
{
    // The three identification columns lead csvSchema(); every other
    // column is a registry value.
    const StatSet stats = metrics::toStatSet(r);
    std::string row = label + ',' +
                      schedulerPolicyName(r.config.sm.scheduler) + ',' +
                      pgPolicyName(r.config.sm.pg.policy);
    for (const ExportField& f : csvSchema()) {
        if (!f.metric.empty())
            row += ',' + formatMetricValue(stats.get(f.metric));
    }
    return row;
}

std::string
toJson(const std::string& label, const SimResult& r)
{
    const StatSet stats = metrics::toStatSet(r);
    Json doc = Json::object();
    doc.set("label", Json::string(label));
    setPath(doc, "config.scheduler",
            Json::string(schedulerPolicyName(r.config.sm.scheduler)));
    setPath(doc, "config.pg_policy",
            Json::string(pgPolicyName(r.config.sm.pg.policy)));
    setPath(doc, "config.adaptive",
            Json::boolean(r.config.sm.pg.adaptiveIdleDetect));
    for (const ExportField& f : jsonSchema()) {
        if (f.column != "config.adaptive") // the boolean above
            setPath(doc, f.column, Json::number(stats.get(f.metric)));
    }
    setPath(doc, "int.idle_histogram", histogramJson(r.intIdleHist));
    setPath(doc, "fp.idle_histogram", histogramJson(r.fpIdleHist));
    return doc.dump();
}

void
printSummary(std::ostream& os, const std::string& label,
             const SimResult& r)
{
    Table table(label + " on " +
                std::string(schedulerPolicyName(r.config.sm.scheduler)) +
                " / " + pgPolicyName(r.config.sm.pg.policy) +
                (r.config.sm.pg.adaptiveIdleDetect ? " + adaptive" : ""));
    table.header({"metric", "INT", "FP"});
    PgDomainStats si = r.typeStats(UnitClass::Int);
    PgDomainStats sf = r.typeStats(UnitClass::Fp);
    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    table.row({"static savings",
               Table::pct(r.intEnergy.staticSavingsRatio()),
               Table::pct(r.fpEnergy.staticSavingsRatio())});
    table.row({"busy cycles", u64(si.busyCycles), u64(sf.busyCycles)});
    table.row({"gated cycles", u64(si.gatedCycles()),
               u64(sf.gatedCycles())});
    table.row({"gating events", u64(si.gatingEvents),
               u64(sf.gatingEvents)});
    table.row({"wakeups (uncomp)",
               u64(si.wakeups) + " (" + u64(si.uncompWakeups) + ")",
               u64(sf.wakeups) + " (" + u64(sf.uncompWakeups) + ")"});
    table.row({"critical wakeups", u64(si.criticalWakeups),
               u64(sf.criticalWakeups)});
    table.print(os);

    os << "cycles " << r.cycles << ", IPC " << Table::num(r.ipc(), 2)
       << ", avg active warps "
       << Table::num(r.aggregate.avgActiveWarps(), 1) << ", mem misses "
       << r.aggregate.memMisses << "\n\n";
}

void
appendCsv(const std::string& path, const std::string& rows)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    const bool fresh = ec || size == 0;
    std::ofstream out(path, std::ios::app);
    if (!out)
        fatal("cannot open '", path, "' for appending");
    if (fresh)
        out << csvHeader() << '\n';
    out << rows;
    if (!out)
        fatal("write to '", path, "' failed");
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << content;
    if (!out)
        fatal("write to '", path, "' failed");
}

} // namespace wg
