/**
 * @file
 * Machine-readable result export: CSV rows and JSON documents for
 * downstream analysis (plotting scripts, regression tracking).
 *
 * Both exports walk their column table (csvSchema/jsonSchema) and read
 * each value from the metrics registry (metrics::toStatSet), printing
 * it with formatMetricValue: integers exactly, doubles at round-trip
 * precision.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/result.hh"

namespace wg {

/**
 * One exported CSV column (or dotted JSON path) and the name of the
 * metrics-registry entry (metrics::toStatSet) carrying the same value.
 * `metric` is empty for identification columns (label, policy names)
 * that have no numeric registry twin. The schema-drift guard test
 * cross-checks every mapped field against the registry, so a column
 * added to one export path but not the other fails fast.
 */
struct ExportField
{
    std::string column; ///< CSV column name / dotted JSON path
    std::string metric; ///< registry name, "" for non-numeric columns
};

/** The CSV columns, in order; csvHeader() is generated from this. */
const std::vector<ExportField>& csvSchema();

/**
 * The numeric JSON leaves (as dotted paths, matching
 * metrics::flattenJson) that have a registry twin. Histogram bins are
 * deliberately absent: the registry keeps scalars only.
 */
const std::vector<ExportField>& jsonSchema();

/**
 * Stable CSV schema for simulation results. Columns:
 * label, scheduler, pg_policy, adaptive, num_sms, cycles, ipc,
 * avg_active_warps, int_busy_frac, fp_busy_frac,
 * int_static_savings, fp_static_savings,
 * int_wakeups, fp_wakeups, int_critical, fp_critical,
 * int_gating_events, fp_gating_events, mem_misses.
 */
std::string csvHeader();

/** One CSV row for @p result, labelled @p label (e.g. the benchmark). */
std::string toCsvRow(const std::string& label, const SimResult& result);

/**
 * Compact JSON document for @p result: configuration summary, headline
 * metrics, per-type gating statistics, energy ledgers, and the
 * idle-period histograms (bins 0..maxBin plus overflow).
 */
std::string toJson(const std::string& label, const SimResult& result);

/**
 * The human-readable per-benchmark summary (the INT/FP gating table
 * plus the cycles/IPC line). Shared by wgsim and wgctl so a served
 * result prints byte-identically to an offline run.
 */
void printSummary(std::ostream& os, const std::string& label,
                  const SimResult& result);

/**
 * Append @p rows (newline-terminated toCsvRow lines) to the CSV file
 * @p path, writing csvHeader() first only when the file is new or
 * empty, so repeated runs into one file keep a single header.
 * fatal() on I/O failure.
 */
void appendCsv(const std::string& path, const std::string& rows);

/** Write @p content to @p path; fatal() on I/O failure. */
void writeFile(const std::string& path, const std::string& content);

} // namespace wg

