// wait_table.hpp — futex-style, address-keyed parking for blocking sync.
//
// The table generalises the Qthreads full/empty-bit idea: ANY word in the
// process can become a blocking point, keyed by its address, without the
// word itself growing a waiter queue. Waiters park on a sharded intrusive
// FIFO; wakers unpark by address. The shape is the classic parking-lot /
// futex wait-queue: validation runs under the shard lock, so a waker that
// changes the waited-on state *before* calling unpark() can never lose a
// wakeup (the waiter either re-validates and refuses to park, or is already
// queued and gets dequeued).
//
// Layering: this module sits in sync/ (below core/) so sync::FebTable can
// block on it, yet waiters may be ULTs. The ULT operations (suspend through
// the scheduler, Ult::wake) are dependency-injected by core via
// install_ult_wait_ops() at stream start-up; until then — and always, for
// plain OS threads — waiters fall back to a stack-owned ThreadParker.
//
// Lifetime contract (same discipline as core::SyncWaiter nodes):
// wait nodes live on the waiting context's stack. A registered waiter never
// returns from park_if() before its wake, and unpark() reads a node's
// `next` pointer BEFORE waking it, so the waker never touches freed stack.
// The KEY is only ever compared as a value — unpark(addr) after the word
// itself has been destroyed is safe, exactly like FUTEX_WAKE on a stale
// address.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sync/parking_lot.hpp"
#include "sync/spinlock.hpp"

namespace lwt::sync {

/// ULT-side operations injected by core/ so this layer can block and wake
/// user-level threads it cannot name. All pointers are `core::Ult*` in
/// disguise. Also carries the observability taps (metrics gating + wake
/// latency) so sync-layer waits land in the same registry histogram as the
/// core primitives.
struct UltWaitOps {
    /// Current ULT, or nullptr when the caller is a plain OS thread.
    void* (*current)() noexcept;
    /// Arm the suspend handshake (state := kBlocking). Must be called
    /// BEFORE the waiter becomes visible to any waker.
    void (*arm)(void* ult) noexcept;
    /// Disarm after a failed validation (state := kRunning).
    void (*cancel)(void* ult) noexcept;
    /// Suspend the armed ULT; returns when a waker calls wake().
    void (*suspend)(void* ult) noexcept;
    /// Make a blocked/blocking ULT runnable again (Ult::wake).
    void (*wake)(void* ult) noexcept;
    /// The lot an OS-thread waiter's parker binds to (its attached
    /// stream's), or nullptr. Read before the parker is published.
    ParkingLot* (*thread_lot)() noexcept;
    /// Block an OS thread on its parker (core's thread_wait: an attached
    /// stream drains its pools between parks; bare threads just sleep).
    /// Must not return until parker.notified().
    void (*thread_wait)(ThreadParker& parker) noexcept;
    /// True when latency stamping is worth the rdtsc (Metrics enabled).
    bool (*metrics_enabled)() noexcept;
    /// Record one park->wake latency (ticks) into the sync histogram.
    void (*record_wake_latency)(std::uint64_t ticks) noexcept;
    /// Count one suspend, called at park ENTRY (before blocking) so an
    /// observer can see waiters while they are still parked.
    void (*record_suspend)() noexcept;
};

/// Install the core-provided ops. Idempotent; called from stream start-up
/// (before the first ULT can possibly park). Never uninstalled.
void install_ult_wait_ops(const UltWaitOps* ops) noexcept;

/// The installed ops, or nullptr when core is not linked/initialised.
[[nodiscard]] const UltWaitOps* ult_wait_ops() noexcept;

/// True when the calling context is a ULT (ops installed and current ULT
/// non-null). sync::CentralBarrier uses this for its no-ULT assert.
[[nodiscard]] bool in_ult_context() noexcept;

/// Sharded address-keyed wait queue (process-wide singleton).
class WaitTable {
  public:
    static constexpr std::size_t kShards = 64;

    WaitTable() = default;
    WaitTable(const WaitTable&) = delete;
    WaitTable& operator=(const WaitTable&) = delete;

    static WaitTable& instance();

    /// Park the caller on `key` iff `still_blocked(ctx)` holds under the
    /// shard lock. Returns false immediately (no block) when validation
    /// fails; returns true after a waker's unpark. Callers loop: park_if
    /// gives one sleep per state observation, not a predicate wait.
    bool park_if(const void* key, bool (*still_blocked)(void*), void* ctx);

    /// Wake up to `max_wake` waiters parked on `key` (FIFO). Returns the
    /// number woken. Change the waited-on state BEFORE calling this.
    std::size_t unpark(const void* key, std::size_t max_wake = SIZE_MAX);

    /// Waiters currently parked on `key` (tests/diagnostics only).
    [[nodiscard]] std::size_t waiters(const void* key) const;

  private:
    /// Stack-owned by the parked context; see the lifetime contract above.
    struct WaitNode {
        enum class Kind : std::uint8_t { kUlt, kParker };
        const void* key;
        Kind kind;
        void* ptr;  // Ult* or ThreadParker*
        WaitNode* next = nullptr;
    };

    struct Shard {
        mutable Spinlock lock;
        WaitNode* head = nullptr;  ///< guarded by lock
        WaitNode* tail = nullptr;  ///< guarded by lock
    };

    Shard& shard_for(const void* key) {
        const auto k = reinterpret_cast<std::uintptr_t>(key);
        return shards_[(k >> 3) % kShards];
    }
    const Shard& shard_for(const void* key) const {
        const auto k = reinterpret_cast<std::uintptr_t>(key);
        return shards_[(k >> 3) % kShards];
    }

    Shard shards_[kShards];
};

}  // namespace lwt::sync
