// pool.hpp — work-unit containers with pluggable access topology.
//
// The paper's Table I separates runtimes by exactly this choice: one global
// shared queue (Go, gcc tasks), one private queue per stream (Qthreads,
// MassiveThreads, Converse), or fully configurable (Argobots, Pthreads).
// Pools store raw WorkUnit pointers; ownership follows the unit's `detached`
// flag (see WorkUnit).
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/work_unit.hpp"
#include "queue/chase_lev_deque.hpp"
#include "queue/global_queue.hpp"
#include "queue/locked_deque.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/ms_queue.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {

/// Outcome of one steal probe (re-exported from the queue layer so
/// schedulers need not name lwt::queue).
using StealOutcome = queue::StealOutcome;

/// Abstract work-unit container as seen by schedulers.
class Pool {
  public:
    virtual ~Pool() = default;

    /// Enqueue a ready unit, then wake parked streams if a waker is
    /// attached (see set_waker). Thread-safety of the enqueue depends on
    /// the implementation; see each subclass.
    void push(WorkUnit* unit) {
        do_push(unit);
        notify_waker(/*single_unit=*/true);
    }

    /// Enqueue a whole batch, then wake parked streams ONCE. This is the
    /// bulk-submission fast path: one enqueue burst per backing queue and a
    /// single parking-lot notify per batch instead of one per unit (the
    /// notify-per-push cost Figs. 2-3 measure). Same thread-safety rules as
    /// push() for the respective subclass.
    void push_bulk(std::span<WorkUnit* const> units) {
        if (units.empty()) {
            return;
        }
        do_push_bulk(units);
        notify_waker();
    }

    /// Dequeue the next unit for the owning consumer; nullptr when empty.
    virtual WorkUnit* pop() = 0;

    /// Dequeue from the steal end (for other streams). Default: pools that
    /// do not support stealing return nullptr.
    virtual WorkUnit* steal() { return nullptr; }

    /// Steal with an outcome report for telemetry. Pools whose steal end
    /// can lose a race (WsPool's Chase-Lev CAS) override this to
    /// distinguish kLost from kEmpty; for the rest a null result means
    /// empty.
    virtual WorkUnit* steal(StealOutcome& outcome) {
        WorkUnit* unit = steal();
        outcome = unit != nullptr ? StealOutcome::kSuccess
                                  : StealOutcome::kEmpty;
        return unit;
    }

    /// Remove a specific ready unit (needed by yield_to). Returns false if
    /// the unit is not present or the pool cannot remove by identity.
    virtual bool remove(WorkUnit* unit) {
        (void)unit;
        return false;
    }

    /// Approximate number of queued units — a HINT, not a count. Lock-free
    /// pools may report stale values, and UnboundedSharedPool can only
    /// report emptiness (0 or 1). Use empty() for gating decisions and
    /// treat nonzero values as "roughly this much" (depth sampling,
    /// diagnostics) — never as an exact occupancy.
    [[nodiscard]] virtual std::size_t size_hint() const = 0;

    /// Emptiness check. Default derives from size_hint(); pools whose
    /// backing queue has a cheaper or more truthful emptiness test
    /// override it (UnboundedSharedPool: an MS queue has no O(1) size but
    /// an exact empty()).
    [[nodiscard]] virtual bool empty() const { return size_hint() == 0; }

    /// Whether push() is safe from an arbitrary thread. False only for
    /// owner-only producers (WsPool's Chase-Lev bottom). Cross-thread
    /// injectors — the obs introspection server picking a pool to seed its
    /// acceptor ULT into — must skip pools that return false.
    [[nodiscard]] virtual bool cross_push_safe() const noexcept {
        return true;
    }

    /// How push() wakes parked consumers. kAll broadcasts (safe default);
    /// kOne wakes a single stream — correct only when EVERY stream that
    /// parks on the lot can consume from this pool (a truly shared pool),
    /// otherwise the one woken stream may not be able to run the work.
    /// Runtime computes this from the schedulers' pool views; push_bulk
    /// always broadcasts (a batch has work for everyone).
    enum class WakeMode : std::uint8_t { kAll, kOne };

    /// Attach the parking lot whose streams consume this pool: every push
    /// then wakes parked streams (after the unit is visible in the queue).
    /// Runtime wires this; detach with nullptr before the lot dies.
    void set_waker(sync::ParkingLot* lot,
                   WakeMode mode = WakeMode::kAll) noexcept {
        waker_ = lot;
        wake_mode_ = mode;
    }
    [[nodiscard]] sync::ParkingLot* waker() const noexcept { return waker_; }
    [[nodiscard]] WakeMode wake_mode() const noexcept { return wake_mode_; }

  protected:
    /// Implementation of the enqueue itself. Called by push(); must leave
    /// the unit visible to pop()/steal() before returning.
    virtual void do_push(WorkUnit* unit) = 0;

    /// Batch enqueue. Subclasses with a bulk-capable backing queue override
    /// this to turn N queue operations into one burst; the default keeps
    /// per-unit enqueues (the single notify still comes from push_bulk).
    virtual void do_push_bulk(std::span<WorkUnit* const> units) {
        for (WorkUnit* unit : units) {
            do_push(unit);
        }
    }

    /// Bookkeeping every do_push must perform first: the unit becomes
    /// ready and this pool becomes its home (where yields/wakes return it,
    /// and where yield_to looks for it).
    void on_push(WorkUnit* unit) noexcept {
        unit->home_pool.store(this, std::memory_order_relaxed);
        unit->state.store(State::kReady, std::memory_order_release);
    }

    /// Wake parked consumers. push() calls this after do_push; pools with
    /// extra entry points (PriorityPool::push_with) call it themselves.
    /// A single-unit publish into a kOne pool wakes one stream — one unit
    /// can occupy one consumer; the rest would wake, find nothing, and
    /// walk the idle ladder back to the park (the thundering herd the
    /// lot's wakeups_avoided counter measures). Batches and kAll pools
    /// broadcast.
    void notify_waker(bool single_unit = false) noexcept {
        if (waker_ == nullptr) {
            return;
        }
        if (single_unit && wake_mode_ == WakeMode::kOne) {
            waker_->notify_one();
        } else {
            waker_->notify_all();
        }
    }

  private:
    sync::ParkingLot* waker_ = nullptr;
    WakeMode wake_mode_ = WakeMode::kAll;
};

/// Shared FIFO guarded by one lock — the Go / gcc-OpenMP topology. Any
/// thread may push or pop; contention grows with the consumer count.
class SharedFifoPool final : public Pool {
  public:
    WorkUnit* pop() override { return queue_.try_pop().value_or(nullptr); }
    WorkUnit* steal() override { return pop(); }  // same end: it's one queue
    bool remove(WorkUnit* unit) override;
    [[nodiscard]] std::size_t size_hint() const override {
        return queue_.size();
    }

  protected:
    void do_push(WorkUnit* unit) override {
        on_push(unit);
        queue_.push(unit);
    }
    void do_push_bulk(std::span<WorkUnit* const> units) override {
        for (WorkUnit* unit : units) {
            on_push(unit);
        }
        queue_.push_bulk(units);
    }

  private:
    queue::GlobalQueue<WorkUnit*> queue_;
};

/// Lock-free bounded MPMC pool — a scalable shared pool (Argobots' shared
/// pool configuration). Falls back to spinning in push when full.
class MpmcPool final : public Pool {
  public:
    explicit MpmcPool(std::size_t capacity = 1 << 16) : queue_(capacity) {}

    WorkUnit* pop() override { return queue_.try_pop().value_or(nullptr); }
    WorkUnit* steal() override { return pop(); }
    [[nodiscard]] std::size_t size_hint() const override {
        return queue_.size_approx();
    }

  protected:
    void do_push(WorkUnit* unit) override;
    void do_push_bulk(std::span<WorkUnit* const> units) override;

  private:
    queue::MpmcQueue<WorkUnit*> queue_;
};

/// Unbounded lock-free shared pool over the Michael-Scott queue: the
/// MpmcPool without a capacity bound, for workloads whose outstanding unit
/// count cannot be sized up front. Nodes are reclaimed through the hazard-
/// pointer domain.
class UnboundedSharedPool final : public Pool {
  public:
    WorkUnit* pop() override { return queue_.try_pop().value_or(nullptr); }
    WorkUnit* steal() override { return pop(); }
    [[nodiscard]] std::size_t size_hint() const override {
        // MS queues have no O(1) size: the hint saturates at 1 ("not
        // empty"). Callers wanting occupancy must not sum this pool in.
        return queue_.empty() ? 0 : 1;
    }
    [[nodiscard]] bool empty() const override { return queue_.empty(); }

  protected:
    void do_push(WorkUnit* unit) override {
        on_push(unit);
        queue_.push(unit);
    }

  private:
    queue::MsQueue<WorkUnit*> queue_;
};

/// Spinlock-protected deque with a configurable consumer end. This is the
/// "one private queue per stream" building block: any thread may push
/// (round-robin dispatch), the owner pops, thieves use steal().
class DequePool final : public Pool {
  public:
    /// kFifo: owner pops oldest (Converse/Qthreads order).
    /// kLifo: owner pops newest (MassiveThreads depth-first order).
    enum class PopOrder { kFifo, kLifo };

    explicit DequePool(PopOrder order = PopOrder::kFifo) : order_(order) {}

    WorkUnit* pop() override {
        auto out = order_ == PopOrder::kLifo ? deque_.pop_back()
                                             : deque_.pop_front();
        return out.value_or(nullptr);
    }
    /// Thieves take the end opposite the owner's.
    WorkUnit* steal() override {
        auto out = order_ == PopOrder::kLifo ? deque_.pop_front()
                                             : deque_.pop_back();
        return out.value_or(nullptr);
    }
    bool remove(WorkUnit* unit) override;
    [[nodiscard]] std::size_t size_hint() const override {
        return deque_.size();
    }

  protected:
    void do_push(WorkUnit* unit) override {
        on_push(unit);
        deque_.push_back(unit);
    }
    void do_push_bulk(std::span<WorkUnit* const> units) override {
        for (WorkUnit* unit : units) {
            on_push(unit);
        }
        deque_.push_back_bulk(units);
    }

  private:
    PopOrder order_;
    queue::LockedDeque<WorkUnit*> deque_;
};

/// Chase-Lev work-stealing pool. push/pop are OWNER-ONLY (the stream the
/// pool belongs to); any other stream may steal(). No personality uses
/// it: mth runs on LIFO DequePools and momp's TaskPool drives
/// queue::ChaseLevDeque directly. It serves custom schedulers built on
/// the kernel and the steal tests.
class WsPool final : public Pool {
  public:
    explicit WsPool(std::size_t initial_capacity = 1024)
        : deque_(initial_capacity) {}

    WorkUnit* pop() override { return deque_.pop_bottom().value_or(nullptr); }
    WorkUnit* steal() override { return deque_.steal_top().value_or(nullptr); }
    WorkUnit* steal(StealOutcome& outcome) override {
        WorkUnit* unit = nullptr;
        outcome = deque_.steal_top(unit);
        return outcome == StealOutcome::kSuccess ? unit : nullptr;
    }
    [[nodiscard]] std::size_t size_hint() const override {
        return deque_.size_approx();
    }
    [[nodiscard]] bool cross_push_safe() const noexcept override {
        return false;  // Chase-Lev push_bottom is owner-only
    }

  protected:
    void do_push(WorkUnit* unit) override {
        on_push(unit);
        deque_.push_bottom(unit);
    }
    /// Owner-only, like do_push: one grow-to-fit pass, then a single
    /// release publish of `bottom_` covering the whole batch.
    void do_push_bulk(std::span<WorkUnit* const> units) override {
        for (WorkUnit* unit : units) {
            on_push(unit);
        }
        deque_.push_bottom_bulk(units.data(), units.size());
    }

  private:
    queue::ChaseLevDeque<WorkUnit*> deque_;
};

}  // namespace lwt::core
