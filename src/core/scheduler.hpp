// scheduler.hpp — pluggable, stackable work-unit schedulers.
//
// A scheduler owns an ordered view over one or more pools and decides which
// ready unit an execution stream runs next. Personalities subclass it (or
// configure the provided policies) to reproduce each paper library's
// behaviour; Argobots-style *stackable* schedulers are supported by
// XStream's scheduler stack (a pushed scheduler preempts its parent until
// `finished()`).
#pragma once

#include <cstddef>
#include <random>
#include <vector>

#include "core/pool.hpp"
#include "core/sched_stats.hpp"

namespace lwt::core {

/// Base scheduler: round-robin-free, strictly ordered pool scan. Pool 0 is
/// the stream's "main" pool (where its yielded/woken units return).
class Scheduler {
  public:
    explicit Scheduler(std::vector<Pool*> pools) : pools_(std::move(pools)) {}
    virtual ~Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Pick the next ready unit, or nullptr if none is available right now.
    virtual WorkUnit* next() {
        for (Pool* p : pools_) {
            if (WorkUnit* unit = p->pop()) {
                return unit;
            }
        }
        return nullptr;
    }

    /// For stacked schedulers: return true once this scheduler's job is done
    /// and it should be popped. The base scheduler runs forever.
    [[nodiscard]] virtual bool finished() const { return false; }

    /// True if any pool still holds ready work (used for drain-on-stop).
    [[nodiscard]] virtual bool has_work() const {
        for (const Pool* p : pools_) {
            if (!p->empty()) {
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] Pool* main_pool() const {
        return pools_.empty() ? nullptr : pools_.front();
    }
    [[nodiscard]] const std::vector<Pool*>& pools() const { return pools_; }

    /// Could this scheduler legally dispatch a unit sitting in `pool`?
    /// Gates join-stealing (core/join.hpp): pulling a unit out of a pool
    /// this stream could never see would break placement semantics (a unit
    /// spawned onto another stream's private pool must run THERE).
    /// StealingScheduler widens this to its victim set.
    [[nodiscard]] virtual bool can_run_from(const Pool* pool) const {
        for (const Pool* p : pools_) {
            if (p == pool) {
                return true;
            }
        }
        return false;
    }

    /// Attach the owning stream's telemetry counters (steal outcomes land
    /// there). XStream binds this when the scheduler is installed; a
    /// standalone scheduler (unit tests) may bind its own or leave null.
    void bind_stats(SchedCounters* counters) noexcept { stats_ = counters; }
    [[nodiscard]] SchedCounters* stats() const noexcept { return stats_; }

  protected:
    std::vector<Pool*> pools_;
    SchedCounters* stats_ = nullptr;
};

/// Work-stealing scheduler: drain the home pool, then steal (MassiveThreads'
/// random work stealing; also used by the icc-OpenMP-like task path).
///
/// The steal sweep makes `probes` random probes and then, if configured,
/// falls back to one linear scan over every victim, so a single next() call
/// finds work whenever any victim holds some — the stream's idle loop only
/// has to provide backoff, not retry-for-coverage. The home pool is
/// filtered out of the victim list at construction, so callers may pass
/// all pools uniformly (and a probe can never be wasted on the home pool —
/// the pre-fix code returned nullptr on that roll, burning the whole idle
/// iteration).
///
/// Victims can be *tiered* by locality (arch::LocalityMap::victim_tiers):
/// a sweep exhausts SMT siblings (linear — the tier is tiny), then
/// same-package victims (probes + linear), then remote packages (probes +
/// linear), so a thief only crosses the socket when its own package is
/// provably dry. Per-tier attempts/hits land in SchedCounters next to the
/// flat totals. The untiered constructor puts every victim in the package
/// tier, which reproduces the flat sweep exactly.
/// Steal-sweep shape for StealingScheduler.
struct StealConfig {
    /// Random probes per sweep (per tier) before the linear fallback.
    unsigned probes = 4;
    /// Scan every victim (from a random start) once the probes miss.
    bool linear_fallback = true;
};

/// Victim pools bucketed by steal distance (nearest first). Indexed by
/// arch::StealTier; built from arch::LocalityMap::victim_tiers.
struct VictimTiers {
    std::vector<Pool*> sibling;  ///< same physical core (SMT)
    std::vector<Pool*> package;  ///< same package, different core
    std::vector<Pool*> remote;   ///< different package
};

class StealingScheduler : public Scheduler {
  public:
    /// Flat form: `home` is this stream's own pool; `victims` are the other
    /// streams' pools (may include `home`; it is removed). All victims land
    /// in the package tier — one locality class, exactly the old sweep.
    StealingScheduler(Pool* home, std::vector<Pool*> victims,
                      unsigned seed = 0x9e3779b9u, StealConfig config = {})
        : StealingScheduler(home,
                            VictimTiers{{}, std::move(victims), {}},
                            seed, config) {}

    /// Tiered form: victims bucketed by steal distance. Null pools and the
    /// home pool are filtered from every tier.
    StealingScheduler(Pool* home, VictimTiers tiers,
                      unsigned seed = 0x9e3779b9u, StealConfig config = {})
        : Scheduler({home}), config_(config), rng_(seed) {
        auto filter = [home](std::vector<Pool*>& v) {
            std::size_t out = 0;
            for (Pool* p : v) {
                if (p != nullptr && p != home) {
                    v[out++] = p;
                }
            }
            v.resize(out);
        };
        filter(tiers.sibling);
        filter(tiers.package);
        filter(tiers.remote);
        tiers_[0] = std::move(tiers.sibling);
        tiers_[1] = std::move(tiers.package);
        tiers_[2] = std::move(tiers.remote);
        for (const auto& tier : tiers_) {
            victims_.insert(victims_.end(), tier.begin(), tier.end());
        }
    }

    WorkUnit* next() override {
        if (WorkUnit* unit = pools_.front()->pop()) {
            return unit;
        }
        return steal();
    }

    /// One full steal sweep, nearest tier first; nullptr when every probed
    /// victim came up empty.
    WorkUnit* steal() {
        // Siblings share our L1/L2: the tier is at most (SMT-1) pools, so
        // scan it outright rather than rolling dice.
        if (WorkUnit* unit = sweep_linear(tiers_[0], 0, 0)) {
            return unit;
        }
        for (std::size_t t = 1; t < kStealTiers; ++t) {
            const std::vector<Pool*>& tier = tiers_[t];
            const std::size_t n = tier.size();
            if (n == 0) {
                continue;
            }
            for (unsigned p = 0; p < config_.probes; ++p) {
                Pool* victim = tier[rng_() % n];
                if (victim == pools_.front()) {
                    // Unreachable after the constructor filter, but a probe
                    // that lands home must reroll, never end the sweep.
                    continue;
                }
                if (WorkUnit* unit = probe(victim, t)) {
                    return unit;
                }
            }
            if (config_.linear_fallback) {
                if (WorkUnit* unit = sweep_linear(tier, rng_() % n, t)) {
                    return unit;
                }
            }
        }
        return nullptr;
    }

    [[nodiscard]] bool has_work() const override {
        // victims_ excludes the home pool, so this checks each pool once.
        if (Scheduler::has_work()) {
            return true;
        }
        for (const Pool* v : victims_) {
            if (!v->empty()) {
                return true;
            }
        }
        return false;
    }

    /// A steal victim's unit may run here too — that's what stealing is.
    [[nodiscard]] bool can_run_from(const Pool* pool) const override {
        if (Scheduler::can_run_from(pool)) {
            return true;
        }
        for (const Pool* v : victims_) {
            if (v == pool) {
                return true;
            }
        }
        return false;
    }

    /// All victims, flattened nearest-tier first.
    [[nodiscard]] const std::vector<Pool*>& victims() const noexcept {
        return victims_;
    }
    /// Victims in steal-distance tier `t` (indexed by arch::StealTier).
    [[nodiscard]] const std::vector<Pool*>& tier_victims(
        std::size_t t) const noexcept {
        return tiers_[t];
    }
    [[nodiscard]] const StealConfig& steal_config() const noexcept {
        return config_;
    }

  private:
    WorkUnit* sweep_linear(const std::vector<Pool*>& tier, std::size_t start,
                           std::size_t t) {
        const std::size_t n = tier.size();
        for (std::size_t k = 0; k < n; ++k) {
            Pool* victim = tier[(start + k) % n];
            if (victim == pools_.front()) {
                continue;
            }
            if (WorkUnit* unit = probe(victim, t)) {
                return unit;
            }
        }
        return nullptr;
    }

    WorkUnit* probe(Pool* victim, std::size_t tier) {
        StealOutcome outcome;
        WorkUnit* unit = victim->steal(outcome);
        if (stats_ != nullptr) {
            SchedCounters::bump(stats_->tier_attempts[tier]);
            switch (outcome) {
                case StealOutcome::kSuccess:
                    SchedCounters::bump(stats_->steal_hits);
                    SchedCounters::bump(stats_->tier_hits[tier]);
                    break;
                case StealOutcome::kEmpty:
                    SchedCounters::bump(stats_->steal_empty);
                    break;
                case StealOutcome::kLost:
                    SchedCounters::bump(stats_->steal_lost);
                    break;
            }
        }
        return unit;
    }

    StealConfig config_;
    std::array<std::vector<Pool*>, kStealTiers> tiers_;
    std::vector<Pool*> victims_;  // flattened tiers, nearest first
    std::minstd_rand rng_;
};

/// Round-robin scheduler: rotates the scan's starting pool after every
/// dequeue, so same-priority pools share the stream fairly instead of the
/// front pool starving the rest. Demonstrates the "plug-in scheduler" row
/// of Table I; also exercised by the custom-scheduler example.
class RoundRobinScheduler : public Scheduler {
  public:
    using Scheduler::Scheduler;

    WorkUnit* next() override {
        const std::size_t n = pools_.size();
        for (std::size_t k = 0; k < n; ++k) {
            if (WorkUnit* unit = pools_[(start_ + k) % n]->pop()) {
                start_ = (start_ + k + 1) % n;
                return unit;
            }
        }
        return nullptr;
    }

  private:
    std::size_t start_ = 0;
};

}  // namespace lwt::core
