// sched_stats.hpp — per-stream steal/idle telemetry.
//
// Companion to Tracer (trace.hpp): where the tracer records per-unit
// lifecycle events, SchedStats counts what the *scheduling machinery*
// did between units — steal probes and their outcomes, and how the idle
// ladder (spin -> backoff -> park, see sync/idle_backoff.hpp) was walked.
// Counters are written with relaxed atomics by the owning stream (steal
// outcomes may be bumped by whichever thread drives the scheduler) and
// snapshotted from anywhere; a snapshot is a plain struct that sums with
// operator+= so Runtime::sched_stats() can aggregate across streams.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "arch/cpu.hpp"
#include "arch/locality.hpp"

namespace lwt::core {

/// Number of steal-distance tiers (sibling / package / remote); indexed by
/// arch::StealTier. Re-exported here so core code need not spell the arch
/// constant.
inline constexpr std::size_t kStealTiers = arch::kStealTiers;

/// Display name for tier `t` ("sibling" | "package" | "remote").
[[nodiscard]] inline const char* steal_tier_name(std::size_t t) noexcept {
    return arch::steal_tier_name(t);
}

/// Plain (non-atomic) counter snapshot; the unit of reporting.
struct SchedStats {
    std::uint64_t steal_attempts = 0;  ///< probes sent at a victim pool
    std::uint64_t steal_hits = 0;      ///< probes that returned a unit
    std::uint64_t steal_empty = 0;     ///< probes that found the victim empty
    std::uint64_t steal_lost = 0;      ///< probes that lost a CAS race
    std::uint64_t idle_spins = 0;      ///< cpu_relax bursts while idle
    std::uint64_t idle_yields = 0;     ///< OS yields while idle
    std::uint64_t parks = 0;           ///< blocked on the parking lot
    std::uint64_t unparks = 0;         ///< parks ended by a notify
    std::uint64_t park_timeouts = 0;   ///< parks ended by the safety net

    /// Herd wakeups a single-unit push skipped by waking one stream instead
    /// of broadcasting (Pool::WakeMode::kOne). Lives in the ParkingLot, not
    /// in SchedCounters; Runtime::sched_stats()/TaskPool::sched_stats() fold
    /// it into the aggregate snapshot.
    std::uint64_t wakeups_avoided = 0;

    /// Per-tier breakdown of steal_attempts/steal_hits, indexed by
    /// arch::StealTier (sibling / package / remote). A flat (untiered)
    /// StealingScheduler accounts everything to the package tier; tier
    /// sums equal the totals above.
    std::array<std::uint64_t, kStealTiers> tier_attempts{};
    std::array<std::uint64_t, kStealTiers> tier_hits{};

    /// Fraction of steal probes that produced work (0 when no probes).
    [[nodiscard]] double steal_hit_rate() const noexcept {
        return steal_attempts == 0
                   ? 0.0
                   : static_cast<double>(steal_hits) /
                         static_cast<double>(steal_attempts);
    }

    SchedStats& operator+=(const SchedStats& o) noexcept {
        steal_attempts += o.steal_attempts;
        steal_hits += o.steal_hits;
        steal_empty += o.steal_empty;
        steal_lost += o.steal_lost;
        idle_spins += o.idle_spins;
        idle_yields += o.idle_yields;
        parks += o.parks;
        unparks += o.unparks;
        park_timeouts += o.park_timeouts;
        wakeups_avoided += o.wakeups_avoided;
        for (std::size_t t = 0; t < kStealTiers; ++t) {
            tier_attempts[t] += o.tier_attempts[t];
            tier_hits[t] += o.tier_hits[t];
        }
        return *this;
    }
};

/// Live counters, one instance per execution stream (owned by XStream;
/// momp's TaskPool keeps one per pool). Cache-line aligned so two streams
/// never false-share their counters.
///
/// There is no live attempts counter: every probe bumps exactly one
/// outcome (hit / empty / lost), and snapshot() derives steal_attempts as
/// their sum. A separate attempts bump would let a snapshot taken between
/// a thief's two bumps disagree with the outcomes.
struct alignas(arch::kCacheLine) SchedCounters {
    std::atomic<std::uint64_t> steal_hits{0};
    std::atomic<std::uint64_t> steal_empty{0};
    std::atomic<std::uint64_t> steal_lost{0};
    std::atomic<std::uint64_t> idle_spins{0};
    std::atomic<std::uint64_t> idle_yields{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
    std::atomic<std::uint64_t> park_timeouts{0};
    std::array<std::atomic<std::uint64_t>, kStealTiers> tier_attempts{};
    std::array<std::atomic<std::uint64_t>, kStealTiers> tier_hits{};

    static void bump(std::atomic<std::uint64_t>& c) noexcept {
        c.fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] SchedStats snapshot() const noexcept {
        SchedStats s;
        s.steal_hits = steal_hits.load(std::memory_order_relaxed);
        s.steal_empty = steal_empty.load(std::memory_order_relaxed);
        s.steal_lost = steal_lost.load(std::memory_order_relaxed);
        s.steal_attempts = s.steal_hits + s.steal_empty + s.steal_lost;
        s.idle_spins = idle_spins.load(std::memory_order_relaxed);
        s.idle_yields = idle_yields.load(std::memory_order_relaxed);
        s.parks = parks.load(std::memory_order_relaxed);
        s.unparks = unparks.load(std::memory_order_relaxed);
        s.park_timeouts = park_timeouts.load(std::memory_order_relaxed);
        for (std::size_t t = 0; t < kStealTiers; ++t) {
            s.tier_attempts[t] = tier_attempts[t].load(std::memory_order_relaxed);
            s.tier_hits[t] = tier_hits[t].load(std::memory_order_relaxed);
        }
        return s;
    }

    void reset() noexcept {
        steal_hits.store(0, std::memory_order_relaxed);
        steal_empty.store(0, std::memory_order_relaxed);
        steal_lost.store(0, std::memory_order_relaxed);
        idle_spins.store(0, std::memory_order_relaxed);
        idle_yields.store(0, std::memory_order_relaxed);
        parks.store(0, std::memory_order_relaxed);
        unparks.store(0, std::memory_order_relaxed);
        park_timeouts.store(0, std::memory_order_relaxed);
        for (std::size_t t = 0; t < kStealTiers; ++t) {
            tier_attempts[t].store(0, std::memory_order_relaxed);
            tier_hits[t].store(0, std::memory_order_relaxed);
        }
    }
};

}  // namespace lwt::core
