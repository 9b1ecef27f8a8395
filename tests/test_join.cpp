// Tests for the direct-handoff join path (core/join.hpp,
// docs/join_path.md): joiner-slot registration and wake-on-terminate,
// join-stealing, the suspend-based EventCounter, ThreadParker teardown
// safety, the ParkingLot notify_one herd-avoidance, the attached-thread
// wait (core/waiter.hpp thread_wait) and a join workload per personality.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that suspends/resumes a ULT is gated
// out under thread sanitizer. Tasklet and OS-thread protocol tests — the
// racy part of the handoff machinery — all stay enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "sync/feb.hpp"
#include "sync/parking_lot.hpp"

#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN 1
#endif
#endif

namespace {

// --- kernel-level protocol ---------------------------------------------------

TEST(JoinCore, NotifyOneCountsAvoidedWakeups) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> release{false};
    auto parked_waiter = [&] {
        while (!release.load()) {
            const std::uint64_t ticket = lot.prepare_park();
            if (release.load()) {
                lot.cancel_park();
                break;
            }
            (void)lot.park(ticket, std::chrono::microseconds(100000));
        }
    };
    std::thread t1(parked_waiter);
    std::thread t2(parked_waiter);
    while (lot.waiters() < 2) {
        std::this_thread::yield();
    }
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
    lot.notify_one();  // two parked, one woken: one avoided wakeup
    EXPECT_EQ(lot.wakeups_avoided(), 1u);
    release.store(true);
    lot.notify_all();
    t1.join();
    t2.join();
    lot.reset_wake_stats();
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
}

TEST(JoinCore, ThreadParkerBareRoundTrip) {
    lwt::sync::ThreadParker parker;
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        parker.notify();
    });
    parker.wait();
    EXPECT_TRUE(parker.notified());
    waker.join();
}

TEST(JoinCore, ThreadParkerFreedTheInstantItIsNotified) {
    // Regression for the parker teardown race: the waiter owns the parker
    // and frees it the moment notified() reads true, while notify() may
    // still be running on the waking thread. notify()'s last access to the
    // parker must be the store that publishes "done" — the old mutex +
    // condvar parker kept signalling and unlocking in the freed memory,
    // and a waker that then slept on a futex in the reused bytes never
    // returned. Each round overwrites the freed storage at once, so a
    // late access trips TSan/ASan here, or hangs the waker (ctest
    // timeout). Rounds alternate spinning, sleeping and lot-bound waiters.
    constexpr int kRounds = 20000;
    lwt::sync::ParkingLot lot;
    std::atomic<lwt::sync::ThreadParker*> slot{nullptr};
    std::thread waker([&] {
        for (int round = 0; round < kRounds; ++round) {
            lwt::sync::ThreadParker* parker;
            while ((parker = slot.exchange(nullptr,
                                           std::memory_order_acquire)) ==
                   nullptr) {
                std::this_thread::yield();
            }
            parker->notify();
        }
    });
    for (int round = 0; round < kRounds; ++round) {
        void* storage = ::operator new(sizeof(lwt::sync::ThreadParker));
        auto* parker = new (storage)
            lwt::sync::ThreadParker(round % 3 == 2 ? &lot : nullptr);
        slot.store(parker, std::memory_order_release);
        if (round % 3 == 1) {
            parker->wait();
        } else {
            while (!parker->notified()) {
                std::this_thread::yield();
            }
        }
        parker->~ThreadParker();
        std::memset(storage, 0xff, sizeof(lwt::sync::ThreadParker));
        ::operator delete(storage);
    }
    waker.join();
}

TEST(JoinCore, PlainThreadJoinerIsWokenDirectly) {
    // A joiner that is not an execution stream blocks on a bare
    // ThreadParker; the terminating stream's publish must wake it and
    // leave the unit reclaimable (join_done).
    lwt::core::DequePool pool;
    auto stream = std::make_unique<lwt::core::XStream>(
        0, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&pool}));
    stream->start();
    auto* unit = new lwt::core::Tasklet(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    delete unit;
    stream->stop_and_join();
}

TEST(JoinCore, JoinStealRunsQueuedTaskletInline) {
    // Joiner on an attached stream + unit still kReady in a removable pool
    // the joiner's scheduler drains => the joiner pulls it and runs it on
    // its own stack (work-first), no parking, no second thread involved.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    delete unit;
    stream.detach_caller();
}

TEST(JoinCore, JoinStealRespectsPlacement) {
    // The joined unit sits in a pool the joiner's scheduler can NOT
    // dispatch from (another stream's private pool): stealing it would
    // migrate explicitly-placed work, so the joiner must wait instead.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    theirs.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_NE(ran_on, std::this_thread::get_id());
    delete unit;
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, HandoffRecordsSignalResumeLatency) {
    // Deterministic discriminator for CI's join-smoke leg: a joiner that
    // MUST suspend (the unit runs-and-sleeps on another stream, so steal/
    // help-first/backoff all fail) records its signal→resume sample in
    // the "join.signal_resume_ticks" histogram. fig3's empty-bodied units
    // can legally complete every join on the help-first fast path on a
    // small host, so the bench histogram alone cannot assert the direct
    // path was exercised.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "join.signal_resume_ticks");
    lwt::core::DequePool pool;
    auto stream = std::make_unique<lwt::core::XStream>(
        0, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&pool}));
    stream->start();
    lwt::core::Metrics::instance().enable();
    hist.reset();
    auto* unit = new lwt::core::Tasklet(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    const std::uint64_t samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    delete unit;
    stream->stop_and_join();
    EXPECT_GT(samples, 0u);
}

// --- the attached-thread wait on a runtime with a lot ------------------------

/// Live thread_wait() counters, read before and after one blocking case.
struct AttachedWaitDelta {
    lwt::core::Counter& parks =
        lwt::core::MetricsRegistry::instance().counter("wait.attached.parks");
    lwt::core::Counter& timeouts = lwt::core::MetricsRegistry::instance()
                                       .counter("wait.attached.timeouts");
    std::uint64_t parks0 = parks.value();
    std::uint64_t timeouts0 = timeouts.value();

    /// The unit side: sleep until the waiter has parked, so the wait
    /// cannot end on a fast path however the host schedules the threads.
    void sleep_until_parked() const {
        while (parks.value() == parks0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /// Every park of the primary ended by a notify, never by the
    /// safety-net timeout.
    void expect_woken_by_notify() const {
        EXPECT_EQ(timeouts.value() - timeouts0, 0u);
    }
};

/// Two abt streams with private pools: units placed on pool 1 run on the
/// worker stream, where the attached primary can neither steal nor help
/// them, so its waits below must park (the unit sleeps until they do).
lwt::abt::Config two_private_streams() {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    c.pool_kind = lwt::abt::PoolKind::kPrivate;
    return c;
}

void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

TEST(AttachedWait, AbtJoinOfSleepingUnitIsWokenByNotify) {
    lwt::abt::Library lib(two_private_streams());
    const AttachedWaitDelta delta;
    lwt::abt::UnitHandle h = lib.task_create(
        [&delta] { delta.sleep_until_parked(); }, /*pool_idx=*/1);
    h.free();
    delta.expect_woken_by_notify();
}

TEST(AttachedWait, AbtEventCounterWaitIsWokenByNotify) {
    lwt::abt::Library lib(two_private_streams());
    const AttachedWaitDelta delta;
    lwt::core::EventCounter done(1);
    lwt::abt::UnitHandle h = lib.task_create(
        [&delta, &done] {
            delta.sleep_until_parked();
            done.signal();
        },
        /*pool_idx=*/1);
    done.wait();
    h.free();
    delta.expect_woken_by_notify();
}

TEST(AttachedWait, AbtFebWaitIsWokenByNotify) {
    lwt::abt::Library lib(two_private_streams());
    auto& feb = lwt::sync::FebTable::instance();
    lwt::sync::aligned_t word = 0;
    feb.purge(&word);
    const AttachedWaitDelta delta;
    lwt::abt::UnitHandle h = lib.task_create(
        [&delta, &feb, &word] {
            delta.sleep_until_parked();
            feb.write_f(&word, 42);
        },
        /*pool_idx=*/1);
    EXPECT_EQ(feb.read_ff(&word), 42u);
    h.free();
    delta.expect_woken_by_notify();
    feb.forget(&word);
}

TEST(JoinCore, EventCounterLastSignalRaceStress) {
    // OS threads only (TSan-safe): hammer the zero-crossing window where
    // the waiter registers while the final signal() drains the list. Any
    // lost wakeup hangs the test (ctest timeout).
    for (int round = 0; round < 300; ++round) {
        lwt::core::EventCounter done;
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        EXPECT_LE(done.value(), 0);
        sig.join();
    }
}

TEST(JoinCore, EventCounterDestroyRaceWithFinalSignal) {
    // Regression (REVIEW: EventCounter::signal UAF): the waiter owns the
    // counter and destroys it the instant wait() returns, while the
    // zero-crossing signal() may still be in flight on another thread.
    // signal() must not touch counter memory after the decrement that
    // lets a fast-path waiter pass, nor after the wake that releases a
    // registered waiter — ASan/TSan flag the old drain-under-guard here.
    for (int round = 0; round < 300; ++round) {
        auto owned = std::make_unique<lwt::core::EventCounter>(1);
        lwt::core::EventCounter* done = owned.get();
        std::thread sig([done] { done->signal(); });
        done->wait();
        owned.reset();  // free immediately; signal() may still be running
        sig.join();
    }
}

TEST(JoinCore, EventCounterManyWaitersAllWake) {
    lwt::core::EventCounter done;
    done.add(2);
    std::atomic<int> woken{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([&] {
            done.wait();
            woken.fetch_add(1);
        });
    }
    done.signal();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(woken.load(), 0);  // count still 1: nobody may pass
    done.signal();               // zero crossing wakes the whole list
    for (auto& t : waiters) {
        t.join();
    }
    EXPECT_EQ(woken.load(), 4);
}

TEST(JoinCore, EventCounterReusesAcrossRounds) {
    // WaitGroup shape: the same counter is re-armed after each wait.
    lwt::core::EventCounter done;
    for (int round = 0; round < 50; ++round) {
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        sig.join();
    }
    EXPECT_EQ(done.value(), 0);
}

#if !defined(LWT_TSAN)

TEST(JoinCore, UltJoinerStealsViaYieldTo) {
    // Parent ULT joins a still-queued sibling: the join must hand the
    // stream straight to the joinee (yield_to shape), running it ahead of
    // units queued before it.
    lwt::core::DequePool pool;  // FIFO: b would run before c normally
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::vector<int> order;
    auto* b = new lwt::core::Ult([&] { order.push_back(1); });
    auto* c = new lwt::core::Ult([&] { order.push_back(2); });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(c);  // queued LAST, must still run FIRST
        order.push_back(3);
    });
    parent->detached = true;
    pool.push(parent);  // parent dequeues first, with b and c still queued
    pool.push(b);
    pool.push(c);
    stream.run_until([&] { return order.size() == 3; });
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
    EXPECT_TRUE(b->join_done() || !b->terminated());
    lwt::core::join_unit(b);
    delete b;
    delete c;
    stream.detach_caller();
}

TEST(JoinCore, UltJoinerSuspendsUntilTermination) {
    // The joinee runs on ANOTHER stream: the joining ULT must suspend
    // (kBlocked) and be requeued by the terminator's wake, not poll.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::atomic<bool> child_ran{false};
    auto* child = new lwt::core::Ult([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        child_ran.store(true);
    });
    std::atomic<bool> joined{false};
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        EXPECT_TRUE(child_ran.load());
        joined.store(true);
    });
    parent->detached = true;
    theirs.push(child);
    mine.push(parent);
    me.run_until([&] { return joined.load(); });
    delete child;
    me.detach_caller();
    other->stop_and_join();
}

// --- one join workload per personality, checked against its closed form -----

int abt_workload() {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int i = 0; i < 32; ++i) {
        handles.push_back(lib.thread_create([&, i] { sum.fetch_add(i); }));
    }
    lib.join_all_free(handles);
    lwt::abt::UnitHandle tl = lib.task_create([&] { sum.fetch_add(1000); });
    tl.free();
    return sum.load();
}

int qth_workload() {
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    lwt::qth::Library lib(c);
    std::atomic<int> sum{0};
    lwt::qth::Sinc sinc;
    lib.fork_bulk(48, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); },
                  sinc);
    sinc.wait();
    return sum.load();
}

int mth_workload() {
    lwt::mth::Config c;
    c.num_workers = 2;
    lwt::mth::Library lib(c);
    std::atomic<int> sum{0};
    lib.run([&] {
        std::vector<lwt::mth::ThreadHandle> hs;
        for (int i = 0; i < 32; ++i) {
            hs.push_back(lib.create([&, i] { sum.fetch_add(i); }));
        }
        for (auto& h : hs) {
            h.join();
        }
    });
    return sum.load();
}

long mth_fib(lwt::mth::Library& lib, int n) {
    if (n < 2) {
        return n;
    }
    long left = 0;
    lwt::mth::ThreadHandle child =
        lib.create([&lib, &left, n] { left = mth_fib(lib, n - 1); });
    const long right = mth_fib(lib, n - 2);
    child.join();
    return left + right;
}

int cvt_workload() {
    lwt::cvt::Config c;
    c.num_pes = 2;
    lwt::cvt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::cvt::CthHandle> hs;
    for (int i = 0; i < 16; ++i) {
        hs.push_back(lib.cth_create([&, i] { sum.fetch_add(i); }));
    }
    for (auto& h : hs) {
        h.join();
    }
    return sum.load();
}

int gol_workload() {
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    std::atomic<int> sum{0};
    lwt::gol::WaitGroup wg;
    wg.add(64);
    for (int i = 0; i < 64; ++i) {
        lib.go([&, i] {
            sum.fetch_add(i);
            wg.done();
        });
    }
    wg.wait();
    return sum.load();
}

/// Sum of 0..n-1: what every workload's units add up to.
constexpr int triangle(int n) { return n * (n - 1) / 2; }

TEST(JoinWorkloads, AbtMatchesClosedForm) {
    EXPECT_EQ(abt_workload(), triangle(32) + 1000);
}
TEST(JoinWorkloads, QthMatchesClosedForm) {
    EXPECT_EQ(qth_workload(), triangle(48));
}
TEST(JoinWorkloads, MthMatchesClosedForm) {
    EXPECT_EQ(mth_workload(), triangle(32));
}
TEST(JoinWorkloads, CvtMatchesClosedForm) {
    EXPECT_EQ(cvt_workload(), triangle(16));
}
TEST(JoinWorkloads, GolMatchesClosedForm) {
    EXPECT_EQ(gol_workload(), triangle(64));
}

TEST(JoinWorkloads, RecursiveWorkFirstJoinCompletes) {
    // Regression: a ULT joining a child ULT must hand the stream to the
    // joinee (the join-steal's yield_to), not plain-yield — under mth's
    // LIFO deques a plain yield re-pops the joiner ahead of the child
    // forever (the fib divide-and-conquer livelock).
    lwt::mth::Config c;
    c.num_workers = 2;
    c.policy = lwt::mth::Policy::kWorkFirst;
    lwt::mth::Library lib(c);
    long result = 0;
    lib.run([&] { result = mth_fib(lib, 10); });
    EXPECT_EQ(result, 55);
}

TEST(JoinWorkloads, HandoffJoinAvoidsIdleYields) {
    // The join phase of fig3 in miniature: the primary creates units onto
    // a worker's pool and join-waits for each. The joiner registers and
    // parks — its wait never touches the idle ladder (a polling join of a
    // 2 ms unit would walk past the spin limit into yields every round).
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    lib.runtime().reset_stats();
    for (int round = 0; round < 8; ++round) {
        lwt::abt::UnitHandle h = lib.thread_create(nap, /*pool_idx=*/1);
        h.free();
    }
    // Primary stream only: the joiner's own idle behaviour, without the
    // worker's unrelated between-rounds idling.
    EXPECT_EQ(lib.runtime().primary().sched_stats().idle_yields, 0u);
}

#endif  // !LWT_TSAN

}  // namespace
