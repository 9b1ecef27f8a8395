// xstream.hpp — execution stream: one OS thread driving a scheduler stack.
//
// The paper's per-library names for this object: Execution Stream
// (Argobots), Shepherd/Worker (Qthreads), Worker (MassiveThreads),
// Processor (Converse Threads), Thread (Go).
//
// Idle behaviour is a configurable ladder (sync/idle_backoff.hpp,
// docs/idle_loop.md): bounded spin -> exponential backoff -> park on the
// runtime's ParkingLot until a Pool::push wakes the stream. Every steal
// probe and idle step is counted in per-stream SchedCounters, snapshotted
// through sched_stats().
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "arch/locality.hpp"
#include "core/sched_stats.hpp"
#include "core/scheduler.hpp"
#include "core/ult.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

class XStream {
  public:
    /// Create a stream with its base scheduler. Does not start the OS
    /// thread; call start() or attach_caller().
    XStream(unsigned rank, std::unique_ptr<Scheduler> scheduler);
    ~XStream();
    XStream(const XStream&) = delete;
    XStream& operator=(const XStream&) = delete;

    /// Launch a dedicated OS thread running the scheduling loop.
    void start();

    /// Callback the dedicated thread runs once before its loop (thread
    /// binding, naming). Set before start().
    void set_on_start(std::function<void()> hook) {
        on_start_ = std::move(hook);
    }

    /// Configure how the stream waits when idle. Set before start(); the
    /// default is kBackoff. kPark additionally needs set_parking_lot().
    void set_idle_config(sync::IdleConfig config) noexcept {
        idle_config_ = config;
    }
    [[nodiscard]] const sync::IdleConfig& idle_config() const noexcept {
        return idle_config_;
    }

    /// Attach the lot this stream parks on (and is woken through — wire
    /// the same lot into the pools' set_waker). Set before start(); pass
    /// nullptr to detach. Without a lot, kPark degrades to kBackoff.
    void set_parking_lot(sync::ParkingLot* lot) noexcept {
        parking_lot_ = lot;
    }
    [[nodiscard]] sync::ParkingLot* parking_lot() const noexcept {
        return parking_lot_;
    }

    /// Ask the loop to exit once no ready work remains, then join the
    /// OS thread. Wakes the stream if it is parked. Safe to call if never
    /// started.
    void stop_and_join();

    /// Adopt the *calling* OS thread as this stream (used for the primary
    /// stream: the program's main thread). Pair with detach_caller().
    void attach_caller() noexcept;
    void detach_caller() noexcept;

    /// Run at most one ready work unit on the calling thread (which must be
    /// attached or be the stream's own thread). Returns false when idle.
    bool progress();

    /// Drive the scheduling loop on the calling thread until `pred()` holds.
    /// The classic "return mode": Converse's CsdScheduler. Never parks —
    /// an arbitrary predicate may flip without any pool push, which no
    /// waker reports — so the ladder is clamped at backoff. Joins and
    /// counter waits do not come here: they register for a direct wakeup
    /// instead and park race-free in core/waiter.hpp thread_wait.
    template <typename Pred>
    void run_until(Pred&& pred) {
        sync::IdleConfig config = idle_config_;
        if (config.policy == sync::IdlePolicy::kPark) {
            config.policy = sync::IdlePolicy::kBackoff;
        }
        sync::IdleBackoff idle(config, nullptr);
        while (!pred()) {
            if (progress()) {
                idle.reset();
            } else {
                count_idle_step(idle.step([] { return false; }));
            }
        }
    }

    /// Push a scheduler that preempts the current one until finished()
    /// (Argobots' stackable schedulers). Thread-safe.
    void push_scheduler(std::unique_ptr<Scheduler> scheduler);

    /// Stream currently driving the calling OS thread, or nullptr.
    static XStream* current() noexcept;

    /// Instruct the loop to run `unit` next, bypassing scheduler selection
    /// (yield_to support). The unit must already be out of every pool.
    void set_next_hint(WorkUnit* unit) noexcept { next_hint_ = unit; }

    /// Scheduler at the top of the stack (base scheduler if none pushed).
    [[nodiscard]] Scheduler& scheduler() noexcept;

    [[nodiscard]] unsigned rank() const noexcept { return rank_; }
    [[nodiscard]] bool stop_requested() const noexcept {
        return stop_.load(std::memory_order_acquire);
    }

    /// Units executed by this stream (diagnostics/tests).
    [[nodiscard]] std::uint64_t executed() const noexcept {
        return executed_.load(std::memory_order_relaxed);
    }

    /// Scheduling-progress epoch: bumped (one relaxed store) at the top of
    /// every progress() pass. The stall watchdog (src/obs/watchdog.hpp)
    /// samples it — a frozen epoch while the stream's pools hold work
    /// means the stream is wedged (or its driving thread went away).
    [[nodiscard]] std::uint64_t progress_epoch() const noexcept {
        return progress_epoch_.load(std::memory_order_relaxed);
    }

    /// TSC at which the currently-executing unit was dispatched; 0 while
    /// idle or whenever the watchdog is unarmed (set_watchdog_armed —
    /// keeping the default dispatch path at one relaxed load).
    [[nodiscard]] std::uint64_t exec_start_tsc() const noexcept {
        return exec_start_tsc_.load(std::memory_order_relaxed);
    }

    /// True once start() launched a dedicated OS thread for this stream.
    /// Streams driven manually (attach_caller + progress/run_until) stay
    /// false — the watchdog exempts them, since "no progress" on a stream
    /// nobody is obliged to drive is not a stall.
    [[nodiscard]] bool has_dedicated_thread() const noexcept {
        return started_.load(std::memory_order_relaxed);
    }

    /// Record where this stream sits in the machine hierarchy (see
    /// arch::LocalityMap). Set by the runtime/personality that owns the
    /// stream; defaults to domain 0 (everything local).
    void set_placement(const arch::StreamPlacement& p) noexcept {
        placement_ = p;
    }
    [[nodiscard]] const arch::StreamPlacement& placement() const noexcept {
        return placement_;
    }

    /// Live steal/idle counters for this stream (see sched_stats.hpp).
    [[nodiscard]] const SchedCounters& counters() const noexcept {
        return counters_;
    }
    /// Plain snapshot of this stream's counters.
    [[nodiscard]] SchedStats sched_stats() const noexcept {
        return counters_.snapshot();
    }
    void reset_sched_stats() noexcept { counters_.reset(); }

    /// Execute one specific unit on the calling thread immediately.
    /// Exposed for personalities with run-inline semantics (work-first
    /// creation, inlined task cutoffs).
    void run_unit(WorkUnit* unit);

  private:
    void loop();
    void count_idle_step(sync::IdleBackoff::Step step) noexcept;
    void finish_unit(WorkUnit* unit);

    const unsigned rank_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> started_{false};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> progress_epoch_{0};
    std::atomic<std::uint64_t> exec_start_tsc_{0};
    WorkUnit* next_hint_ = nullptr;  // touched only by the driving thread

    sync::IdleConfig idle_config_{};
    sync::ParkingLot* parking_lot_ = nullptr;
    arch::StreamPlacement placement_{};
    SchedCounters counters_;

    mutable sync::Spinlock sched_lock_;
    std::vector<std::unique_ptr<Scheduler>> sched_stack_;
    std::function<void()> on_start_;

    std::thread thread_;
};

/// Cooperatively transfer control from the current ULT directly to `target`
/// (Argobots ABT_thread_yield_to). The current ULT goes back to its home
/// pool; `target` is removed from its pool and runs next on this stream.
/// Returns false (and degrades to a plain yield) if `target` is not ready
/// in a removable pool.
bool yield_to(Ult* target);

}  // namespace lwt::core
