/**
 * @file
 * Shared building blocks of the wire codecs (wire.cc, snapshot.cc):
 * one generic JSON encode/decode pair driven by visitFields, plus the
 * few value shapes that are not a plain field list. Everything here
 * follows the wire conventions — camelCase member names, deterministic
 * number formatting, and deserialization that returns false with an
 * actionable error instead of aborting.
 *
 * Value mapping:
 *   unsigned integers    number; narrower than 64 bits range-checked
 *   bool / double        boolean / number
 *   std::string          string
 *   std::array, vector   array (std::array lengths must match)
 *   [type][cluster] grid {"int":[...],"fp":[...]}
 *   Histogram            {"maxBin","bins","overflow","total","sum"},
 *                        total == sum(bins) + overflow enforced
 *   trace::EventKind     number below kNumEventKinds
 *   visitable struct     object keyed by its visitFields names
 *
 * This is an internal header: tools and tests should speak through
 * wire.hh / snapshot.hh.
 */

#pragma once

#include <array>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/fields.hh"
#include "common/json.hh"
#include "sim/result.hh"
#include "sim/snapshot.hh"

namespace wg::serve::wire::detail {

/**
 * Dotted location of a JSON value ("result.aggregate.clusters.int.0").
 * Each segment links to its parent on the stack, so the string is only
 * built when an error reports it.
 */
class JsonPath
{
  public:
    /** @param root first segment; must outlive the path. */
    explicit JsonPath(std::string_view root) : root_(root) {}
    JsonPath(const JsonPath& parent, const char* key)
        : parent_(&parent), key_(key)
    {
    }
    JsonPath(const JsonPath& parent, std::size_t index)
        : parent_(&parent), index_(index)
    {
    }

    std::string str() const;

  private:
    const JsonPath* parent_ = nullptr;
    std::string_view root_;
    const char* key_ = nullptr;
    std::size_t index_ = 0;
};

/** Set @p error to "<path>: <what>"; always returns false. */
bool failAt(std::string& error, const JsonPath& path,
            const std::string& what);

/** Fetch member @p key of object @p obj into @p out. */
bool getMember(const Json& obj, const JsonPath& path, const char* key,
               const Json*& out, std::string& error);

/** Value as a u64: a non-negative number, else false with @p error. */
bool decodeU64(const Json& j, const JsonPath& path, std::uint64_t& out,
               std::string& error);

/** {"wire":kSchemaVersion,"type":<type>} document skeleton. */
Json makeEnvelope(const char* type);

// ----- values whose shape is not a plain field list -----

Json encodeJson(const Histogram& h);
bool decodeJson(const Json& j, const JsonPath& path, Histogram& out,
                std::string& error);

/**
 * A snapshot SM carries its trace and sampler sections only when the
 * run had them (hasTrace / hasSampler); defined in snapshot.cc.
 */
Json encodeJson(const SmSnapshot& s);
bool decodeJson(const Json& j, const JsonPath& path, SmSnapshot& out,
                std::string& error);

template <class T, std::size_t N>
Json encodeJson(const std::array<std::array<T, N>, 2>& grid);
template <class T, std::size_t N>
bool decodeJson(const Json& j, const JsonPath& path,
                std::array<std::array<T, N>, 2>& grid,
                std::string& error);

// ----- the generic pair -----

template <class T>
Json encodeJson(const T& v);
template <class T>
bool decodeJson(const Json& j, const JsonPath& path, T& out,
                std::string& error);

/** Decode member @p key of object @p obj at @p path. */
template <class T>
bool
decodeMember(const Json& obj, const JsonPath& path, const char* key,
             T& out, std::string& error)
{
    const Json* m = nullptr;
    return getMember(obj, path, key, m, error) &&
           decodeJson(*m, JsonPath(path, key), out, error);
}

/**
 * Encode the members of visitable @p s for which @p present(member)
 * holds (default: all of them).
 */
template <class T, class Present>
Json
encodeFields(const T& s, Present&& present)
{
    Json j = Json::object();
    T::visitFields([&](const char* name, auto m) {
        if (present(m))
            j.set(name, encodeJson(s.*m));
    });
    return j;
}

/**
 * Decode the members of visitable @p out in visitFields order; a
 * member for which @p present(member) is false is reset to its
 * default instead of read. Stops at the first error.
 */
template <class T, class Present>
bool
decodeFields(const Json& j, const JsonPath& path, T& out,
             std::string& error, Present&& present)
{
    if (!j.isObject())
        return failAt(error, path, "expected an object");
    bool ok = true;
    T::visitFields([&](const char* name, auto m) {
        if (!ok)
            return;
        if (present(m))
            ok = decodeMember(j, path, name, out.*m, error);
        else
            out.*m = std::remove_cvref_t<decltype(out.*m)>();
    });
    return ok;
}

template <class T>
Json
encodeJson(const T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return Json::boolean(v);
    } else if constexpr (std::is_same_v<T, double>) {
        return Json::number(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return Json::string(v);
    } else if constexpr (std::is_unsigned_v<T> || std::is_enum_v<T>) {
        return Json::number(static_cast<std::uint64_t>(v));
    } else if constexpr (kIsStdArray<T> || kIsVector<T>) {
        Json arr = Json::array();
        for (const auto& item : v)
            arr.append(encodeJson(item));
        return arr;
    } else {
        return encodeFields(v, [](auto) { return true; });
    }
}

template <class T>
bool
decodeJson(const Json& j, const JsonPath& path, T& out,
           std::string& error)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!j.isBool())
            return failAt(error, path, "expected a boolean");
        out = j.asBool();
        return true;
    } else if constexpr (std::is_same_v<T, double>) {
        if (!j.isNumber())
            return failAt(error, path, "expected a number");
        out = j.asDouble();
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!j.isString())
            return failAt(error, path, "expected a string");
        out = j.asString();
        return true;
    } else if constexpr (std::is_same_v<T, trace::EventKind>) {
        std::uint8_t kind = 0;
        if (!decodeJson(j, path, kind, error))
            return false;
        if (kind >= trace::kNumEventKinds)
            return failAt(error, path, "unknown event kind");
        out = static_cast<trace::EventKind>(kind);
        return true;
    } else if constexpr (std::is_unsigned_v<T>) {
        std::uint64_t v = 0;
        if (!decodeU64(j, path, v, error))
            return false;
        if (v > std::numeric_limits<T>::max())
            return failAt(error, path, "out of range");
        out = static_cast<T>(v);
        return true;
    } else if constexpr (kIsStdArray<T> || kIsVector<T>) {
        if (!j.isArray())
            return failAt(error, path, "expected an array");
        const std::vector<Json>& items = j.items();
        if constexpr (kIsStdArray<T>) {
            if (items.size() != out.size())
                return failAt(error, path,
                              "expected exactly " +
                                  std::to_string(out.size()) +
                                  " elements, got " +
                                  std::to_string(items.size()));
        } else {
            out.clear();
            out.resize(items.size());
        }
        for (std::size_t i = 0; i < items.size(); ++i)
            if (!decodeJson(items[i], JsonPath(path, i), out[i], error))
                return false;
        return true;
    } else {
        return decodeFields(j, path, out, error,
                            [](auto) { return true; });
    }
}

/** The [type][cluster] grid, keyed by unit type: type 0 = INT. */
inline constexpr const char* kGridTypeNames[2] = {"int", "fp"};

template <class T, std::size_t N>
Json
encodeJson(const std::array<std::array<T, N>, 2>& grid)
{
    Json j = Json::object();
    for (std::size_t type = 0; type < 2; ++type)
        j.set(kGridTypeNames[type], encodeJson(grid[type]));
    return j;
}

template <class T, std::size_t N>
bool
decodeJson(const Json& j, const JsonPath& path,
           std::array<std::array<T, N>, 2>& grid, std::string& error)
{
    for (std::size_t type = 0; type < 2; ++type)
        if (!decodeMember(j, path, kGridTypeNames[type], grid[type],
                          error))
            return false;
    return true;
}

} // namespace wg::serve::wire::detail
