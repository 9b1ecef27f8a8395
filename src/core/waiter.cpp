#include "core/waiter.hpp"

#include <cassert>
#include <chrono>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/xstream.hpp"
#include "sync/wait_table.hpp"

namespace lwt::core {

namespace {

/// Counted at park ENTRY (not at wake) so a concurrent observer — e.g. a
/// lock holder deciding when every contender has actually suspended — can
/// see the parks while the waiters are still blocked.
void record_sync_suspend() noexcept {
    static Counter& suspends =
        MetricsRegistry::instance().counter("sync.suspends");
    suspends.inc();
}

void record_sync_wake(std::uint64_t ticks) noexcept {
    static LatencyHistogram& hist =
        MetricsRegistry::instance().histogram("sync.wake_latency_ticks");
    hist.record(ticks);
}

/// Safety net of a lot-bound park (the idle ladder's park timeout). Every
/// producer an attached stream waits for notifies the lot — pool pushes,
/// parker notifies, teardown — so the net only bounds the damage of one
/// that bypasses it. Kept short: with a 10 ms net, abt channel hops that
/// wake a parked primary took 4.3 us instead of 3.2 us on a 4-CPU KVM
/// guest (a long sleep lets the idle CPU settle deeper).
constexpr std::chrono::microseconds kLotSafetyNet{1000};

/// Nap of an attached stream without a lot: nothing wakes it for pool
/// pushes, so it re-drains its pools at this period.
constexpr std::chrono::microseconds kLotlessNap{50};

// --- hooks handed to sync::WaitTable ---------------------------------------

void* hook_current() noexcept { return Ult::current(); }

void hook_arm(void* ult) noexcept {
    static_cast<Ult*>(ult)->state.store(State::kBlocking,
                                        std::memory_order_release);
}

void hook_cancel(void* ult) noexcept {
    static_cast<Ult*>(ult)->state.store(State::kRunning,
                                        std::memory_order_relaxed);
}

void hook_suspend(void* ult) noexcept {
    static_cast<Ult*>(ult)->suspend(YieldStatus::kBlocked);
}

void hook_wake(void* ult) noexcept { Ult::wake(static_cast<Ult*>(ult)); }

sync::ParkingLot* hook_thread_lot() noexcept {
    return parker_lot(XStream::current());
}

void hook_thread_wait(sync::ThreadParker& parker) noexcept {
    thread_wait(parker, XStream::current());
}

bool hook_metrics_enabled() noexcept {
    return Metrics::instance().enabled();
}

constexpr sync::UltWaitOps kWaitOps{
    &hook_current,  &hook_arm,
    &hook_cancel,   &hook_suspend,
    &hook_wake,     &hook_thread_lot,
    &hook_thread_wait,
    &hook_metrics_enabled, &record_sync_wake,
    &record_sync_suspend,
};

}  // namespace

void ensure_sync_wait_ops() noexcept {
    sync::install_ult_wait_ops(&kWaitOps);
}

sync::ParkingLot* parker_lot(const XStream* stream) noexcept {
    return stream != nullptr ? stream->parking_lot() : nullptr;
}

void thread_wait(sync::ThreadParker& parker, XStream* stream) noexcept {
    if (stream == nullptr) {
        parker.wait();
        return;
    }
    assert(parker.lot() == stream->parking_lot() &&
           "bind the parker with parker_lot() before publishing it");
    static Counter& parks =
        MetricsRegistry::instance().counter("wait.attached.parks");
    static Counter& timeouts =
        MetricsRegistry::instance().counter("wait.attached.timeouts");
    sync::ParkingLot* const lot = parker.lot();
    while (!parker.notified()) {
        if (stream->progress()) {
            continue;
        }
        if (lot == nullptr) {
            parks.inc();
            (void)parker.wait_for(kLotlessNap);
            continue;
        }
        const std::uint64_t ticket = lot->prepare_park();
        if (parker.notified() || stream->scheduler().has_work() ||
            stream->stop_requested()) {
            lot->cancel_park();
            continue;
        }
        parks.inc();
        if (!lot->park(ticket, kLotSafetyNet) && lot->epoch() == ticket &&
            (parker.notified() || stream->scheduler().has_work())) {
            // The net, not a notify, ended the park although the wake it
            // waited for was already pending: a notify went missing. An
            // expiry with nothing pending only means a long wait.
            timeouts.inc();
        }
    }
}

void wake_sync_waiter(SyncWaiter* w) noexcept {
    if (w->kind == SyncWaiter::Kind::kUlt) {
        Ult::wake(static_cast<Ult*>(w->ptr));
    } else {
        static_cast<sync::ThreadParker*>(w->ptr)->notify();
    }
}

void wake_sync_chain(SyncWaiter* chain) noexcept {
    while (chain != nullptr) {
        SyncWaiter* const next = chain->next;
        wake_sync_waiter(chain);
        chain = next;
    }
}

SyncBlocker::SyncBlocker() noexcept
    : self_(Ult::current()),
      stream_(self_ == nullptr ? XStream::current() : nullptr) {}

void SyncBlocker::prepare(SyncWaiter& node) noexcept {
    node_ = &node;
    node.block_tsc = Metrics::instance().enabled() ? arch::rdtsc() : 0;
    if (self_ != nullptr) {
        node.kind = SyncWaiter::Kind::kUlt;
        node.ptr = self_;
        // Arm the kBlocking/kWakePending handshake BEFORE the node is
        // published: the waker may call Ult::wake the instant the
        // primitive's guard drops.
        self_->state.store(State::kBlocking, std::memory_order_release);
        return;
    }
    parker_.emplace(parker_lot(stream_));
    node.kind = SyncWaiter::Kind::kParker;
    node.ptr = &*parker_;
}

void SyncBlocker::cancel(SyncWaiter& /*node*/) noexcept {
    if (self_ != nullptr) {
        self_->state.store(State::kRunning, std::memory_order_relaxed);
    }
    node_ = nullptr;
}

void SyncBlocker::wait() noexcept {
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_suspend();
    }
    if (self_ != nullptr) {
        self_->suspend(YieldStatus::kBlocked);
    } else {
        thread_wait(*parker_, stream_);
    }
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_wake(arch::rdtsc() - node_->block_tsc);
    }
}

}  // namespace lwt::core
