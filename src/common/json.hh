/**
 * @file
 * The project's one JSON module: a document model with a strict
 * parser, the string escape, and the deterministic number format.
 *
 * Every JSON reader uses Json::parse — the serving wire format and
 * snapshots, the metrics loader behind wgreport, wgtrace. Every JSON
 * writer either builds a Json tree (result exports, wire documents) or,
 * on the streaming hot paths (trace sink, wgmetrics jsonl lines, stream
 * frames, event log), emits fixed keys by hand and escapes every
 * caller-supplied string through appendJsonEscaped.
 *
 * Determinism contract: numbers remember their source lexeme, so
 * parse -> serialize reproduces the input bytes for any number the
 * simulator emits, and programmatically-built numbers are formatted
 * with formatMetricValue (integers exactly, doubles with round-trip
 * precision). Object members keep insertion order; two builds of the
 * same document therefore serialize byte-identically.
 *
 * Parsing never aborts: every malformed input — truncated documents,
 * wrong types, oversized fields, nesting past the depth limit — comes
 * back as an error string, which each caller turns into a clean error
 * (a protocol error response, exit status 2).
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wg {

/** Hard input limits; exceeding any of them is a parse error. */
struct JsonLimits
{
    std::size_t maxDepth = 64;          ///< nesting depth
    std::size_t maxStringBytes = 1 << 16; ///< one string literal
    std::size_t maxContainerItems = 1 << 16; ///< members per container
};

/** One JSON value (tree node). */
class Json
{
  public:
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    static Json null();
    static Json boolean(bool v);
    /** Number formatted deterministically (formatMetricValue). */
    static Json number(double v);
    /** Unsigned counter; always formatted as an exact integer. */
    static Json number(std::uint64_t v);
    static Json string(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asDouble() const { return num_; }
    /** Value as an unsigned counter (truncates; caller range-checks). */
    std::uint64_t asU64() const;
    const std::string& asString() const { return str_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Json>& items() const { return items_; }
    void append(Json v);

    /** Object members in insertion order (empty unless isObject()). */
    const std::vector<std::pair<std::string, Json>>& members() const
    {
        return members_;
    }

    /** Add/replace a member (replacing keeps the original position). */
    void set(const std::string& key, Json v);

    /** @return the member, or nullptr when absent. */
    const Json* find(const std::string& key) const;
    Json* find(const std::string& key);

    /** Serialize compactly (no whitespace). */
    std::string dump() const;

    /**
     * Parse @p text into @p out.
     * @return false with @p error set on malformed or oversized input;
     *         never aborts.
     */
    static bool parse(const std::string& text, Json& out,
                      std::string& error,
                      const JsonLimits& limits = {});

  private:
    void dumpTo(std::string& out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string lexeme_; ///< number source text (exact re-emission)
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;

    friend class JsonParser;
};

/**
 * Append @p s to @p out escaped for a JSON string literal, in place:
 * no temporary, and one bulk append when nothing needs escaping.
 */
void appendJsonEscaped(std::string& out, std::string_view s);

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string& s);

/**
 * Deterministic number formatting: integral values (|v| < 2^53) print
 * without a decimal point, everything else with round-trip (%.17g)
 * precision, so parse(format(v)) == v exactly.
 */
std::string formatMetricValue(double value);

} // namespace wg
