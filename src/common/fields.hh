/**
 * @file
 * One field list per plain statistics or checkpoint struct.
 *
 * A visitable struct names its members exactly once, in the order its
 * JSON form writes them:
 *
 *   template <class V>
 *   static constexpr void
 *   visitFields(V&& v)
 *   {
 *       v("busyCycles", &PgDomainStats::busyCycles);
 *       ...
 *   }
 *
 * Every consumer that must touch every member — merge, epoch deltas,
 * the StatSet registry, the wire and snapshot codecs — walks that list
 * instead of spelling the members out again, so a new counter is one
 * struct line plus one visitFields line. Members are handed over as
 * pointers-to-member, so one walk can pair up two instances (merge,
 * diff) and the list can be counted at compile time.
 *
 * Completeness is checked where each struct is defined:
 *
 *   static_assert(visitsEveryMember<PgDomainStats>());
 *
 * compares the visited count with the aggregate's member count and
 * checks that no member is listed twice, so a member missing from
 * visitFields fails the build.
 */

#pragma once

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace wg {

/** A struct with a static visitFields(v) member-pointer list. */
template <class T>
concept Visitable =
    requires { T::visitFields([](const char*, auto) {}); };

/** Number of (name, member) pairs T::visitFields lists. */
template <Visitable T>
constexpr std::size_t
fieldCount()
{
    std::size_t n = 0;
    T::visitFields([&n](const char*, auto) { ++n; });
    return n;
}

namespace fields_detail {

/** Converts to any member type; only used unevaluated. */
struct AnyMember
{
    template <class T>
    constexpr operator T() const noexcept;
};

template <class T, std::size_t... I>
constexpr bool
bracesWith(std::index_sequence<I...>)
{
    return requires { T{(void(I), AnyMember{})...}; };
}

} // namespace fields_detail

/** True for std::array<T, N>. */
template <class T>
inline constexpr bool kIsStdArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsStdArray<std::array<T, N>> = true;

/** True for std::vector<T>. */
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/**
 * Member count of aggregate @p T: the largest N for which T{x1..xN}
 * compiles. The search counts down from @p Max because counting up
 * stops early on a member whose default constructor is explicit
 * (Histogram): T{x1} then has to copy-list-initialise it from {}.
 */
template <class T, std::size_t Max = 32>
constexpr std::size_t
aggregateArity()
{
    if constexpr (Max == 0)
        return 0;
    else if constexpr (fields_detail::bracesWith<T>(
                           std::make_index_sequence<Max>{}))
        return Max;
    else
        return aggregateArity<T, Max - 1>();
}

/** True when no member appears twice in T::visitFields. */
template <Visitable T>
constexpr bool
membersDistinct()
{
    bool distinct = true;
    std::size_t i = 0;
    // Named template parameters: GCC 12 reads decltype(m1) of the
    // enclosing generic lambda wrongly inside the inner `if constexpr`.
    T::visitFields([&]<class M1>(const char*, M1 m1) {
        std::size_t j = 0;
        T::visitFields([&]<class M2>(const char*, M2 m2) {
            if constexpr (std::is_same_v<M1, M2>)
                distinct = distinct && (i == j || m1 != m2);
            ++j;
        });
        ++i;
    });
    return distinct;
}

/**
 * True when T::visitFields lists every member of T: as many entries
 * as T has members, none of them twice (a slip such as
 * v("a", &S::b) keeps the count right but drops member a).
 */
template <Visitable T>
constexpr bool
visitsEveryMember()
{
    return fieldCount<T>() == aggregateArity<T>() && membersDistinct<T>();
}

/**
 * Merge @p from into @p into member by member: counters add, flags
 * AND (a merged run completed only if every part did), std::arrays
 * and nested visitable structs recurse, and anything else with a
 * merge() (Histogram) merges itself. Members with other semantics
 * (maxima) are for the caller to fix up.
 */
template <class T>
void
mergeFields(T& into, const T& from)
{
    if constexpr (std::is_same_v<T, bool>) {
        into = into && from;
    } else if constexpr (std::is_arithmetic_v<T>) {
        into += from;
    } else if constexpr (kIsStdArray<T>) {
        for (std::size_t i = 0; i < into.size(); ++i)
            mergeFields(into[i], from[i]);
    } else if constexpr (Visitable<T>) {
        T::visitFields(
            [&](const char*, auto m) { mergeFields(into.*m, from.*m); });
    } else {
        into.merge(from);
    }
}

} // namespace wg
