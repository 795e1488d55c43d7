/**
 * @file
 * Offline loading of metrics/result files back into a StatSet.
 *
 * wgreport (and tests) accept any of:
 *   - wgmetrics JSONL (`--metrics-format jsonl`): the final registry
 *     line is loaded; epoch lines are skipped.
 *   - wgmetrics CSV (`--metrics-format csv`): the `# final` section.
 *   - OpenMetrics/Prometheus text (`--metrics-format prom`): `wg_`
 *     sample names are mapped back to dotted registry names.
 *   - a wgsim --json result document: every numeric leaf is flattened
 *     to a dotted key (arrays index as `.0`, `.1`, ...), so two such
 *     documents compare key-for-key.
 *
 * The format is auto-detected from the content.
 */

#pragma once

#include <string>

#include "common/stats.hh"

namespace wg::metrics {

/**
 * Parse @p content (any supported format) into @p out.
 * @return false (with @p error set) on malformed input.
 */
bool parseStatSet(const std::string& content, StatSet& out,
                  std::string& error);

/**
 * Load @p path into @p out.
 * @return false (with @p error naming the file) when the file cannot
 *         be read or parsed.
 */
bool loadStatSet(const std::string& path, StatSet& out,
                 std::string& error);

/**
 * Flatten one JSON document (Json::parse, then a walk of the tree):
 * every numeric (or boolean) leaf becomes `a.b.c` -> value; array
 * elements use their index as the key component. Strings and nulls are
 * ignored.
 * @return false (with @p error set) on malformed JSON, including
 *         nesting past JsonLimits::maxDepth.
 */
bool flattenJson(const std::string& json, StatSet& out,
                 std::string& error);

} // namespace wg::metrics

