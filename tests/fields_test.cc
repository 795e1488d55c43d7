/**
 * @file
 * Field coverage of the visitable stats and checkpoint structs. Each
 * struct lists its members once in visitFields (and a static_assert
 * next to it proves the list has every member); these tests prove that
 * every consumer of a struct sees every member: merge, epoch deltas,
 * the StatSet registry (including appendSmStats' hand-written names),
 * the epoch-series columns, and the wire and snapshot codecs. Every
 * scalar is set to a distinct non-default value first, so a member a
 * consumer drops shows up as a difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hh"
#include "core/presets.hh"
#include "metrics/exporters.hh"
#include "metrics/registry.hh"
#include "metrics/sampler.hh"
#include "serve/snapshot.hh"
#include "serve/wire.hh"
#include "sim/result.hh"
#include "sim/snapshot.hh"

namespace wg {
namespace {

/** Sets every scalar of a value to a distinct non-default value. */
struct Filler
{
    std::uint64_t next = 100;

    template <class T>
    void
    operator()(T& v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = true;
        } else if constexpr (std::is_same_v<T, trace::EventKind>) {
            v = static_cast<trace::EventKind>(
                1 + next++ % (trace::kNumEventKinds - 1));
        } else if constexpr (std::is_same_v<T, double>) {
            v = static_cast<double>(next++) + 0.5;
        } else if constexpr (std::is_unsigned_v<T>) {
            v = static_cast<T>(
                1 + next++ % std::numeric_limits<T>::max());
        } else if constexpr (std::is_same_v<T, Histogram>) {
            v.add(next++ % 60);
            v.add(next++); // lands in the overflow bin
        } else if constexpr (kIsStdArray<T>) {
            for (auto& item : v)
                (*this)(item);
        } else if constexpr (kIsVector<T>) {
            v.resize(2);
            for (auto& item : v)
                (*this)(item);
        } else {
            T::visitFields([&](const char*, auto m) { (*this)(v.*m); });
        }
    }
};

template <class T>
T
filled(std::uint64_t start)
{
    T v{};
    Filler{start}(v);
    return v;
}

/**
 * Call fn(path, leaf...) for every scalar or histogram leaf of the
 * parallel values @p first and @p rest, path spelled in visitFields
 * names ("clusters.0.1.pg.wakeups").
 */
template <class Fn, class T, class... Ts>
void
forEachLeaf(const std::string& path, Fn&& fn, T& first, Ts&... rest)
{
    using U = std::remove_const_t<T>;
    if constexpr (Visitable<U>) {
        U::visitFields([&](const char* name, auto m) {
            forEachLeaf(path.empty() ? name : path + "." + name, fn,
                        first.*m, rest.*m...);
        });
    } else if constexpr (kIsStdArray<U> || kIsVector<U>) {
        for (std::size_t i = 0; i < first.size(); ++i)
            forEachLeaf(path + "." + std::to_string(i), fn, first[i],
                        rest[i]...);
    } else {
        fn(path, first, rest...);
    }
}

/** Paths of the scalar (non-histogram) leaves of @p v. */
template <class T>
std::vector<std::string>
scalarPaths(const T& v)
{
    std::vector<std::string> out;
    forEachLeaf("", [&](const std::string& path, const auto& leaf) {
        if constexpr (!std::is_same_v<std::remove_cvref_t<decltype(leaf)>,
                                      Histogram>)
            out.push_back(path);
    }, v);
    return out;
}

/** Change the scalar leaf at @p target of @p v. */
template <class T>
void
perturb(T& v, const std::string& target)
{
    forEachLeaf("", [&](const std::string& path, auto& leaf) {
        using L = std::remove_cvref_t<decltype(leaf)>;
        if constexpr (std::is_same_v<L, bool>) {
            if (path == target)
                leaf = !leaf;
        } else if constexpr (std::is_arithmetic_v<L>) {
            if (path == target)
                leaf = static_cast<L>(leaf + 7);
        }
    }, v);
}

template <class... Ts>
struct TypeList
{
};

using AllVisitable =
    TypeList<PgDomainStats, ClusterStats, SmStats, UnitEnergy,
             metrics::EpochCounters, metrics::EpochSample,
             metrics::SamplerState, RngState, WarpSlotState,
             SchedulerState, Completion, ExecUnitState, MemSystemState,
             PgDomainState, AdaptiveState, PgControllerState,
             trace::Event, SmSnapshot, GpuSnapshot>;

template <class T>
std::vector<std::string>
fieldNames()
{
    std::vector<std::string> names;
    T::visitFields([&](const char* name, auto) { names.push_back(name); });
    return names;
}

template <class... Ts>
void
expectUniqueNames(TypeList<Ts...>)
{
    auto check = [](const std::vector<std::string>& names) {
        const std::set<std::string> unique(names.begin(), names.end());
        EXPECT_EQ(unique.size(), names.size());
    };
    (check(fieldNames<Ts>()), ...);
}

TEST(Fields, NamesAreUniquePerStruct)
{
    // A repeated name would make the JSON encoder overwrite a member.
    expectUniqueNames(AllVisitable{});
}

TEST(Fields, MergeSumsEveryCounter)
{
    const SmStats a = filled<SmStats>(100);
    SmStats b = filled<SmStats>(10000);
    b.completed = false;
    SmStats merged = a;
    mergeSmStats(merged, b);

    int leaves = 0;
    forEachLeaf("", [&](const std::string& path, const auto& m,
                        const auto& x, const auto& y) {
        using L = std::remove_cvref_t<decltype(m)>;
        ++leaves;
        if constexpr (std::is_same_v<L, Histogram>) {
            Histogram expect = x;
            expect.merge(y);
            EXPECT_TRUE(m == expect) << path << " not merged";
        } else if (path == "completed") {
            EXPECT_EQ(m, x && y) << path << " must AND";
        } else if (path == "activeSizeMax" ||
                   path.rfind("finalIdleDetect.", 0) == 0) {
            EXPECT_EQ(m, std::max(x, y)) << path << " must take the max";
        } else {
            EXPECT_EQ(m, x + y) << path << " not summed";
        }
    }, merged, a, b);
    EXPECT_GT(leaves, 70);

    UnitEnergy e = filled<UnitEnergy>(100);
    const UnitEnergy f = filled<UnitEnergy>(200);
    const UnitEnergy before = e;
    e.add(f);
    forEachLeaf("", [&](const std::string& path, const auto& m,
                        const auto& x, const auto& y) {
        EXPECT_EQ(m, x + y) << path;
    }, e, before, f);
}

TEST(Fields, EpochDeltasSubtractCountersAndKeepGauges)
{
    const metrics::EpochCounters first =
        filled<metrics::EpochCounters>(100);
    metrics::EpochCounters second = first;
    Filler{1000}(second);
    forEachLeaf("", [](const std::string&, auto& later, const auto& earlier) {
        later += earlier; // counters are cumulative
    }, second, first);

    metrics::EpochSampler sampler(0, 1000);
    sampler.sample(1000, first);
    sampler.sample(2000, second);
    ASSERT_EQ(sampler.samples().size(), 2u);
    const metrics::EpochCounters& delta = sampler.samples()[1].delta;
    forEachLeaf("", [](const std::string& path, const auto& d,
                       const auto& b, const auto& a) {
        if (path == "intIdleDetect" || path == "fpIdleDetect")
            EXPECT_EQ(d, b) << path << " is a gauge";
        else
            EXPECT_EQ(d, b - a) << path;
    }, delta, second, first);
}

TEST(Fields, AppendSmStatsCarriesEveryScalar)
{
    // appendSmStats spells its names by hand (gpu.instructions,
    // gpu.units.*, gpu.sched.*, gpu.mem.*, ...); changing any one
    // scalar of the struct must change the registry.
    const SmStats base = filled<SmStats>(100);
    StatSet reference;
    metrics::appendSmStats(reference, "gpu", base);
    const std::vector<std::string> paths = scalarPaths(base);
    ASSERT_GT(paths.size(), 70u);
    for (const std::string& path : paths) {
        SmStats changed = base;
        perturb(changed, path);
        ASSERT_FALSE(changed == base) << path;
        StatSet set;
        metrics::appendSmStats(set, "gpu", changed);
        EXPECT_NE(set.entries(), reference.entries())
            << "SmStats::" << path << " is not registered";
    }
}

SimResult
filledResult()
{
    ExperimentOptions opts;
    opts.numSms = 2;
    SimResult r;
    r.config = makeConfig(Technique::WarpedGates, opts);
    r.aggregate = filled<SmStats>(100);
    r.cycles = 12345;
    r.totalSmCycles = 23456;
    r.smCycles = {12345, 11111};
    r.intEnergy = filled<UnitEnergy>(1000);
    r.fpEnergy = filled<UnitEnergy>(2000);
    r.sfuEnergy = filled<UnitEnergy>(3000);
    r.ldstEnergy = filled<UnitEnergy>(4000);
    return r;
}

TEST(Fields, ToStatSetCarriesEveryEnergyScalar)
{
    const SimResult base = filledResult();
    const StatSet reference = metrics::toStatSet(base);
    for (UnitEnergy SimResult::*ledger :
         {&SimResult::intEnergy, &SimResult::fpEnergy,
          &SimResult::sfuEnergy, &SimResult::ldstEnergy}) {
        for (const std::string& path : scalarPaths(base.*ledger)) {
            SimResult changed = base;
            perturb(changed.*ledger, path);
            EXPECT_NE(metrics::toStatSet(changed).entries(),
                      reference.entries())
                << "UnitEnergy::" << path << " is not registered";
        }
    }
}

TEST(Fields, ResultDocRoundTripIsExact)
{
    const SimResult r = filledResult();
    ExperimentOptions opts;
    opts.numSms = 2;
    const std::string bytes =
        serve::wire::resultDoc("hotspot", Technique::WarpedGates, opts, r)
            .dump();
    serve::Json doc;
    std::string error;
    ASSERT_TRUE(serve::Json::parse(bytes, doc, error)) << error;
    serve::wire::ResultCell cell;
    ASSERT_TRUE(serve::wire::parseResultDoc(doc, cell, error)) << error;
    EXPECT_TRUE(cell.result.aggregate == r.aggregate);
    EXPECT_TRUE(cell.result.intEnergy == r.intEnergy);
    EXPECT_TRUE(cell.result.fpEnergy == r.fpEnergy);
    EXPECT_TRUE(cell.result.sfuEnergy == r.sfuEnergy);
    EXPECT_TRUE(cell.result.ldstEnergy == r.ldstEnergy);
    EXPECT_EQ(cell.result.smCycles, r.smCycles);
}

GpuSnapshot
parseGpuSnapshot(const GpuSnapshot& snap)
{
    const std::string bytes =
        serve::wire::gpuSnapshotToJson(snap).dump();
    serve::Json doc;
    std::string error;
    GpuSnapshot out;
    EXPECT_TRUE(serve::Json::parse(bytes, doc, error,
                                   serve::wire::snapshotJsonLimits()))
        << error;
    EXPECT_TRUE(serve::wire::gpuSnapshotFromJson(doc, "snapshot", out,
                                                 error))
        << error;
    EXPECT_EQ(serve::wire::gpuSnapshotToJson(out).dump(), bytes);
    return out;
}

TEST(Fields, SnapshotRoundTripIsExact)
{
    const GpuSnapshot snap = filled<GpuSnapshot>(100);
    ASSERT_TRUE(snap.sms[0].hasTrace && snap.sms[0].hasSampler);
    EXPECT_TRUE(parseGpuSnapshot(snap) == snap);

    // Without their flags the optional sections are neither written
    // nor read back: they restore to their defaults.
    GpuSnapshot bare = snap;
    for (SmSnapshot& sm : bare.sms) {
        sm.hasTrace = false;
        sm.hasSampler = false;
    }
    GpuSnapshot expect = bare;
    for (SmSnapshot& sm : expect.sms) {
        sm.traceEvents.clear();
        sm.traceOverwritten = 0;
        sm.sampler = metrics::SamplerState{};
    }
    EXPECT_TRUE(parseGpuSnapshot(bare) == expect);
}

TEST(Fields, EpochColumnsNameEveryCounterOnce)
{
    const metrics::EpochCounters counters =
        filled<metrics::EpochCounters>(100);
    metrics::Collector collector;
    collector.prepare(1, 1000);
    collector.sampler(0)->sample(1000, counters);
    std::ostringstream os;
    metrics::writeMetricsCsv(os, &collector, StatSet{});

    std::istringstream in(os.str());
    std::string preamble, header, row;
    ASSERT_TRUE(std::getline(in, preamble));
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    auto split = [](const std::string& line) {
        std::vector<std::string> cells;
        std::istringstream cs(line);
        for (std::string cell; std::getline(cs, cell, ',');)
            cells.push_back(cell);
        return cells;
    };
    std::vector<std::string> columns = split(header);
    std::vector<std::string> values = split(row);
    ASSERT_EQ(columns.size(), values.size());
    const std::vector<std::string> lead = {"sm", "epoch", "cycleEnd",
                                           "cycles"};
    ASSERT_GE(columns.size(), lead.size());
    ASSERT_TRUE(std::equal(lead.begin(), lead.end(), columns.begin()));

    std::vector<std::string> names =
        fieldNames<metrics::EpochCounters>();
    std::vector<std::string> counter_columns(columns.begin() + 4,
                                             columns.end());
    std::sort(names.begin(), names.end());
    std::sort(counter_columns.begin(), counter_columns.end());
    EXPECT_EQ(counter_columns, names);

    // Each column carries the counter of its own name.
    metrics::EpochCounters::visitFields([&](const char* name, auto m) {
        auto at = std::find(columns.begin(), columns.end(), name);
        ASSERT_NE(at, columns.end()) << name;
        EXPECT_EQ(values[at - columns.begin()],
                  std::to_string(counters.*m))
            << name;
    });
}

} // namespace
} // namespace wg
