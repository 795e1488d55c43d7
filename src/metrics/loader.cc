#include "loader.hh"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"

namespace wg::metrics {

namespace {

/** Add @p j's numeric and boolean leaves under dotted @p key. */
void
flatten(const Json& j, const std::string& key, StatSet& out)
{
    const std::string prefix = key.empty() ? key : key + ".";
    if (j.isNumber())
        out.set(key, j.asDouble());
    else if (j.isBool())
        out.set(key, j.asBool() ? 1.0 : 0.0);
    // Strings and nulls carry no metric; items()/members() are empty
    // unless j is an array/object.
    for (std::size_t i = 0; i < j.items().size(); ++i)
        flatten(j.items()[i], prefix + std::to_string(i), out);
    for (const auto& [name, v] : j.members())
        flatten(v, prefix + name, out);
}

/** Dotted registry name from a Prometheus sample name. */
std::string
fromPromName(const std::string& name)
{
    std::string out =
        name.compare(0, 3, "wg_") == 0 ? name.substr(3) : name;
    for (char& c : out)
        if (c == '_')
            c = '.';
    return out;
}

/**
 * Read all of @p text as one strtod number. @return false when it is
 * empty or anything follows the number, so `abc` or `1.5abc` never
 * reads as 0 or 1.5.
 */
bool
parseValue(const char* text, double& v)
{
    char* end = nullptr;
    v = std::strtod(text, &end);
    return end != text && *end == '\0';
}

bool
parseProm(const std::string& content, StatSet& out, std::string& error)
{
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            error = "malformed exposition line: " + line;
            return false;
        }
        double v = 0.0;
        if (!parseValue(line.c_str() + space + 1, v)) {
            error = "bad sample value: " + line;
            return false;
        }
        out.set(fromPromName(line.substr(0, space)), v);
    }
    return true;
}

bool
parseFinalCsv(const std::string& content, StatSet& out,
              std::string& error)
{
    std::istringstream is(content);
    std::string line;
    bool in_final = false;
    bool seen_final = false;
    while (std::getline(is, line)) {
        if (line.rfind("# final", 0) == 0) {
            in_final = true;
            seen_final = true;
            continue;
        }
        if (!in_final || line.empty() || line[0] == '#' ||
            line == "name,value")
            continue;
        std::size_t comma = line.rfind(',');
        if (comma == std::string::npos) {
            error = "malformed final-section line: " + line;
            return false;
        }
        double v = 0.0;
        if (!parseValue(line.c_str() + comma + 1, v)) {
            error = "bad final-section value: " + line;
            return false;
        }
        out.set(line.substr(0, comma), v);
    }
    if (!seen_final) {
        error = "no '# final' section in metrics CSV";
        return false;
    }
    return true;
}

bool
parseJsonl(const std::string& content, StatSet& out, std::string& error)
{
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"type\":\"final\"") == std::string::npos)
            continue;
        StatSet flat;
        if (!flattenJson(line, flat, error))
            return false;
        // Strip the enclosing {"type":"final","stats":{...}} level.
        for (const auto& [name, value] : flat.entries()) {
            if (name.rfind("stats.", 0) == 0)
                out.set(name.substr(6), value);
        }
        return true;
    }
    error = "no final-registry line in metrics JSONL";
    return false;
}

} // namespace

bool
flattenJson(const std::string& json, StatSet& out, std::string& error)
{
    // Files on disk are not network input: only the depth limit (which
    // keeps the recursive parser off the stack's edge) applies.
    JsonLimits limits;
    limits.maxStringBytes = SIZE_MAX;
    limits.maxContainerItems = SIZE_MAX;
    Json doc;
    if (!Json::parse(json, doc, error, limits))
        return false;
    flatten(doc, "", out);
    return true;
}

bool
parseStatSet(const std::string& content, StatSet& out,
             std::string& error)
{
    std::size_t first = content.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
        error = "empty input";
        return false;
    }
    if (content[first] == '{') {
        // wgmetrics JSONL (typed lines) or a plain JSON document.
        std::size_t eol = content.find('\n', first);
        std::string head = content.substr(
            first, eol == std::string::npos ? std::string::npos
                                            : eol - first);
        if (head.find("\"wgmetrics\"") != std::string::npos)
            return parseJsonl(content, out, error);
        return flattenJson(content, out, error);
    }
    if (content.compare(first, 11, "# wgmetrics") == 0)
        return parseFinalCsv(content, out, error);
    // Everything else: OpenMetrics text exposition.
    return parseProm(content, out, error);
}

bool
loadStatSet(const std::string& path, StatSet& out, std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseStatSet(buf.str(), out, error)) {
        error = "cannot parse '" + path + "': " + error;
        return false;
    }
    return true;
}

} // namespace wg::metrics
