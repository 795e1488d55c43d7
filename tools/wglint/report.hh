/**
 * @file
 * wglint reporting: the Violation record, the deterministic sort
 * order every output format relies on, per-rule fix hints, and the
 * text / jsonl emitters. Output is byte-stable: violations are sorted
 * by (file, line, rule, message) regardless of scan order, which is
 * what lets the parallel scanner promise byte-identical reports.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wglint {

struct Violation
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;
    std::string hint;
};

bool violationLess(const Violation& a, const Violation& b);

/** One-line fix hint per rule, shown in both output formats. */
std::string ruleHint(const std::string& rule);

/**
 * Emit sorted violations in `format` ("text" or "jsonl") followed by
 * the text-format summary line ("wglint: clean (...)" / "FAILED").
 */
void printReport(std::ostream& out,
                 const std::vector<Violation>& violations,
                 std::size_t fileCount, const std::string& format);

/** `--list-rules`: one line per rule plus the suppression syntax. */
void printRules(std::ostream& out);

} // namespace wglint
