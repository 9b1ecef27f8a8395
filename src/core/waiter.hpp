// waiter.hpp — shared suspend/degrade machinery for blocking primitives.
//
// Every blocking object in core (Mutex, Condvar, RwLock, Semaphore,
// UltBarrier, Channel, Future) blocks the same way: the caller builds a
// stack-owned SyncWaiter node, arms a SyncBlocker, publishes the node into
// the primitive's intrusive queue under its guard, and waits. The blocker
// binds the node to whatever the calling context is:
//
//   ULT             -> kBlocking/kWakePending handshake + scheduler suspend
//                      (the stream keeps running other ready units)
//   attached stream -> thread_wait(): drains its pools, parks on its lot
//   plain OS thread -> thread_wait(): sleeps on a stack ThreadParker
//
// thread_wait() is the one OS-thread wait in core: SyncBlocker, the
// sync::WaitTable thread hook, EventCounter (through SyncBlocker) and
// join_unit's OS-thread joiner all block through it.
//
// Every primitive gets the same stack-node lifetime contract:
//
//   * registration and wake never allocate;
//   * a registered waiter never returns before its wake (the waker holds a
//     pointer into its stack until then);
//   * wakers read a node's `next` BEFORE waking it — the woken context may
//     unwind and destroy the node immediately.
//
// Wake-latency observability: when Metrics is enabled, prepare() stamps the
// node and wait() records the park->wake delta into the registry histogram
// "sync.wake_latency_ticks" (plus the "sync.suspends" counter) — the CI
// sync-smoke leg asserts these are nonzero under contention.
#pragma once

#include <cstdint>
#include <optional>

#include "core/ult.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {

class XStream;

/// One entry in a primitive's intrusive waiter queue. Lives on the waiting
/// context's stack; see the lifetime contract above.
struct SyncWaiter {
    enum class Kind : std::uint8_t { kUlt, kParker };
    Kind kind = Kind::kUlt;
    void* ptr = nullptr;  ///< Ult* or sync::ThreadParker*
    SyncWaiter* next = nullptr;
    std::uint32_t flags = 0;  ///< primitive-private (e.g. RwLock writer bit)
    std::uint64_t block_tsc = 0;  ///< set at prepare() when Metrics enabled
};

/// FIFO of intrusive SyncWaiter nodes. Not thread-safe: callers mutate it
/// only under the owning primitive's guard.
class SyncWaiterList {
  public:
    void push_back(SyncWaiter* w) noexcept {
        w->next = nullptr;
        if (tail_ != nullptr) {
            tail_->next = w;
        } else {
            head_ = w;
        }
        tail_ = w;
    }

    SyncWaiter* pop_front() noexcept {
        SyncWaiter* w = head_;
        if (w != nullptr) {
            head_ = w->next;
            if (head_ == nullptr) {
                tail_ = nullptr;
            }
            w->next = nullptr;
        }
        return w;
    }

    [[nodiscard]] SyncWaiter* front() const noexcept { return head_; }
    [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

    /// Unlink `target` if present (timed waits dequeue on deadline under
    /// the primitive's guard). True when it was found and removed — the
    /// caller then owns its wake; false means someone else dequeued it.
    bool remove(SyncWaiter* target) noexcept {
        SyncWaiter* prev = nullptr;
        for (SyncWaiter* w = head_; w != nullptr; prev = w, w = w->next) {
            if (w != target) {
                continue;
            }
            if (prev != nullptr) {
                prev->next = w->next;
            } else {
                head_ = w->next;
            }
            if (tail_ == w) {
                tail_ = prev;
            }
            w->next = nullptr;
            return true;
        }
        return false;
    }

    /// Detach the whole chain (linked through `next`); the list is empty
    /// afterwards. Walk the chain reading `next` before each wake.
    SyncWaiter* detach_all() noexcept {
        SyncWaiter* h = head_;
        head_ = nullptr;
        tail_ = nullptr;
        return h;
    }

  private:
    SyncWaiter* head_ = nullptr;
    SyncWaiter* tail_ = nullptr;
};

/// Wake one dequeued node. The node must already be OFF every queue; after
/// this call the waiter may unwind, so the caller must have read `next`
/// first and must not touch the node again.
void wake_sync_waiter(SyncWaiter* w) noexcept;

/// Wake a whole detach_all() chain, reading each `next` before the wake.
void wake_sync_chain(SyncWaiter* chain) noexcept;

/// Binds one block/wake cycle to the calling context. Single-use: Mesa
/// retry loops build a fresh blocker + node per round.
///
/// Usage:
///   SyncBlocker blocker;
///   SyncWaiter node;
///   blocker.prepare(node);            // arm BEFORE the node is visible
///   { guard; if (fast path) { blocker.cancel(node); return; }
///     queue.push_back(&node); }
///   blocker.wait();                   // suspend / drain / park
class SyncBlocker {
  public:
    SyncBlocker() noexcept;
    SyncBlocker(const SyncBlocker&) = delete;
    SyncBlocker& operator=(const SyncBlocker&) = delete;

    /// Arm the handshake and fill the node's kind/ptr (+ latency stamp).
    /// Must run before the node can be seen by any waker: a ULT enters
    /// kBlocking here so a wake racing with the suspend is not lost.
    void prepare(SyncWaiter& node) noexcept;

    /// Disarm after a fast path that never published the node (or removed
    /// it again under the same guard). The blocker may not be reused.
    void cancel(SyncWaiter& node) noexcept;

    /// Block until wake_sync_waiter() hits the prepared node. ULTs suspend
    /// through the scheduler; threads wait in thread_wait().
    void wait() noexcept;

  private:
    Ult* self_;        ///< non-null when the caller is a ULT
    XStream* stream_;  ///< attached stream (thread path only)
    SyncWaiter* node_ = nullptr;
    std::optional<sync::ThreadParker> parker_;  ///< thread path only
};

/// The lot a thread-side parker binds to when `stream` waits: the
/// stream's ParkingLot, or nullptr for a plain thread or a lot-less
/// stream. Bind it at construction, before the parker is published.
[[nodiscard]] sync::ParkingLot* parker_lot(const XStream* stream) noexcept;

/// The one OS-thread wait in core: returns once parker.notified(), never
/// before (the notifier may still hold a pointer to the parker until it
/// publishes). A plain thread (stream == nullptr) sleeps on the parker.
/// An attached stream drains its pools with progress() and, when they run
/// dry, parks: on its lot when it has one — pool pushes and the parker's
/// notify() both wake it, and the lot timeout is only a safety net — or
/// in short naps on the parker when it has none. Counts, live, every park
/// in the registry counter "wait.attached.parks" and in
/// "wait.attached.timeouts" every lot park that the safety net ended
/// while its wake was already pending — a notify that never arrived. The
/// parker must be bound with parker_lot(stream).
void thread_wait(sync::ThreadParker& parker, XStream* stream) noexcept;

/// Install the sync-layer ULT wait hooks (sync::install_ult_wait_ops) so
/// sync::WaitTable can suspend/wake ULTs and record wake latency. Cheap and
/// idempotent; called from XStream construction and core/wait_word.
void ensure_sync_wait_ops() noexcept;

}  // namespace lwt::core
