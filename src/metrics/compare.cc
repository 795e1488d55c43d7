#include "compare.hh"

#include <cmath>

#include "common/json.hh"

namespace wg::metrics {

namespace {

bool
ignored(const std::string& name, const CompareOptions& opts)
{
    for (const std::string& prefix : opts.ignorePrefixes)
        if (name.rfind(prefix, 0) == 0)
            return true;
    return false;
}

double
toleranceFor(const std::string& name, const CompareOptions& opts)
{
    auto it = opts.perMetric.find(name);
    return it == opts.perMetric.end() ? opts.relTol : it->second;
}

} // namespace

CompareReport
compareStatSets(const StatSet& base, const StatSet& test,
                const CompareOptions& opts)
{
    CompareReport report;

    // Union of names in name order: walk base, then test-only names.
    auto examine = [&](const std::string& name) {
        MetricDelta d;
        d.name = name;
        d.onlyInBase = !test.has(name);
        d.onlyInTest = !base.has(name);
        d.base = base.get(name);
        d.test = test.get(name);
        // NaN on both sides is unchanged; NaN on one side compares
        // false against every bound below, so it is beyond tolerance.
        const bool same = d.base == d.test ||
                          (std::isnan(d.base) && std::isnan(d.test));
        d.delta = same ? 0.0 : d.test - d.base;
        d.rel = same || d.base == 0.0 ? 0.0 : d.delta / std::fabs(d.base);

        if (d.onlyInBase || d.onlyInTest) {
            // Structural drift: a metric appeared or vanished.
            d.beyondTolerance = true;
        } else if (!(std::fabs(d.delta) <= opts.absTol)) {
            double tol = toleranceFor(name, opts);
            d.beyondTolerance = d.base != 0.0
                                    ? !(std::fabs(d.rel) <= tol)
                                    : true; // zero baseline moved
        }

        ++report.compared;
        if (d.delta != 0.0 || d.onlyInBase || d.onlyInTest)
            ++report.changed;
        if (d.beyondTolerance)
            ++report.regressions;
        report.deltas.push_back(std::move(d));
    };

    for (const auto& [name, value] : base.entries()) {
        (void)value;
        if (!ignored(name, opts))
            examine(name);
    }
    for (const auto& [name, value] : test.entries()) {
        (void)value;
        if (!base.has(name) && !ignored(name, opts))
            examine(name);
    }
    return report;
}

Table
renderComparison(const CompareReport& report,
                 const std::string& base_label,
                 const std::string& test_label, bool show_all)
{
    Table table("wgreport — " + test_label + " vs " + base_label + " (" +
                std::to_string(report.regressions) + " beyond tolerance, " +
                std::to_string(report.changed) + "/" +
                std::to_string(report.compared) + " changed)");
    table.header({"metric", "base", "test", "delta", "rel", "flag"});
    for (const MetricDelta& d : report.deltas) {
        bool changed = d.delta != 0.0 || d.onlyInBase || d.onlyInTest;
        if (!show_all && !changed)
            continue;
        std::string flag;
        if (d.onlyInBase)
            flag = "MISSING";
        else if (d.onlyInTest)
            flag = "NEW";
        else if (d.beyondTolerance)
            flag = "FAIL";
        std::string rel = d.onlyInBase || d.onlyInTest
                              ? "-"
                              : (d.base != 0.0 ? Table::pct(d.rel, 3)
                                               : "n/a");
        table.row({d.name, formatMetricValue(d.base),
                   formatMetricValue(d.test), formatMetricValue(d.delta),
                   rel, flag});
    }
    return table;
}

} // namespace wg::metrics
