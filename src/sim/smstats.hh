/**
 * @file
 * Raw statistics produced by one SM simulation.
 */

#pragma once

#include <array>
#include <cstdint>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "pg/domain.hh"

namespace wg {

/** Per-gateable-cluster outcome. */
struct ClusterStats
{
    PgDomainStats pg;          ///< state-machine cycle/event counters
    std::uint64_t issues = 0;  ///< warp instructions executed
    Histogram idleHist{64};    ///< idle-period-length distribution

    void merge(const ClusterStats& other) { mergeFields(*this, other); }

    bool operator==(const ClusterStats&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        v("pg", &ClusterStats::pg);
        v("issues", &ClusterStats::issues);
        v("idleHist", &ClusterStats::idleHist);
    }
};

static_assert(visitsEveryMember<ClusterStats>());

/** Everything one SM run produces. */
struct SmStats
{
    Cycle cycles = 0;               ///< simulated cycles
    bool completed = false;         ///< all warps drained (vs maxCycles)

    std::array<std::uint64_t, kNumUnitClasses> issuedByClass = {};
    std::uint64_t issuedTotal = 0;

    /** [type][cluster]; type 0 = INT, 1 = FP. */
    std::array<std::array<ClusterStats, 2>, 2> clusters;

    /** SFU gating-extension stats (all-idle counters when disabled). */
    ClusterStats sfuCluster;

    std::uint64_t sfuIssues = 0;
    std::uint64_t ldstIssues = 0;
    std::uint64_t sfuBusyCycles = 0;
    std::uint64_t ldstBusyCycles = 0;

    // Active-warps-set occupancy (Fig. 5b).
    std::uint64_t activeSizeAccum = 0; ///< sum over cycles
    std::uint32_t activeSizeMax = 0;

    std::uint64_t prioritySwitches = 0;
    std::uint64_t wakeupRequests = 0;  ///< issue-blocked-on-gated events

    // Memory system.
    std::uint64_t memHits = 0;
    std::uint64_t memMisses = 0;
    std::uint64_t memStores = 0;
    std::uint64_t mshrRejects = 0;

    // Adaptive idle detect outcomes.
    std::array<Cycle, 2> finalIdleDetect = {0, 0}; ///< [INT, FP]
    std::array<std::uint64_t, 2> adaptIncrements = {0, 0};
    std::array<std::uint64_t, 2> adaptDecrements = {0, 0};

    /** Mean active-set size over the run. */
    double
    avgActiveWarps() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(activeSizeAccum) /
               static_cast<double>(cycles);
    }

    bool operator==(const SmStats&) const = default;

    template <class V>
    static constexpr void
    visitFields(V&& v)
    {
        using S = SmStats;
        v("cycles", &S::cycles);
        v("completed", &S::completed);
        v("issuedByClass", &S::issuedByClass);
        v("issuedTotal", &S::issuedTotal);
        v("clusters", &S::clusters);
        v("sfuCluster", &S::sfuCluster);
        v("sfuIssues", &S::sfuIssues);
        v("ldstIssues", &S::ldstIssues);
        v("sfuBusyCycles", &S::sfuBusyCycles);
        v("ldstBusyCycles", &S::ldstBusyCycles);
        v("activeSizeAccum", &S::activeSizeAccum);
        v("activeSizeMax", &S::activeSizeMax);
        v("prioritySwitches", &S::prioritySwitches);
        v("wakeupRequests", &S::wakeupRequests);
        v("memHits", &S::memHits);
        v("memMisses", &S::memMisses);
        v("memStores", &S::memStores);
        v("mshrRejects", &S::mshrRejects);
        v("finalIdleDetect", &S::finalIdleDetect);
        v("adaptIncrements", &S::adaptIncrements);
        v("adaptDecrements", &S::adaptDecrements);
    }
};

static_assert(visitsEveryMember<SmStats>());

} // namespace wg

