#include "sync/parking_lot.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace lwt::sync {

namespace {

void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                const timespec* timeout) noexcept {
    (void)::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
                    FUTEX_WAIT_PRIVATE, expected, timeout, nullptr, 0);
}

void futex_wake_one(std::atomic<std::uint32_t>* word) noexcept {
    (void)::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
                    FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

}  // namespace

void ThreadParker::notify() noexcept {
    // Read both before the publish: the waiter may return (and destroy
    // us) once it lands. Afterwards only the lot and the word's address (a
    // futex key, never dereferenced here) are used.
    ParkingLot* const lot = lot_;
    std::atomic<std::uint32_t>* const word = &state_;
    const std::uint32_t prev = word->exchange(kDone, std::memory_order_acq_rel);
    if (lot != nullptr) {
        lot->notify_all();
    } else if (prev == kSleeping) {
        futex_wake_one(word);
    }
}

void ThreadParker::sleep(const timespec* timeout) noexcept {
    std::uint32_t s = state_.load(std::memory_order_acquire);
    if (s == kIdle &&
        !state_.compare_exchange_strong(s, kSleeping,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return;  // lost to notify(): s is kDone
    }
    if (s != kDone) {
        // Returns at once if notify() already moved the word off kSleeping.
        futex_wait(&state_, kSleeping, timeout);
    }
}

void ThreadParker::wait() noexcept {
    while (!notified()) {
        sleep(nullptr);
    }
}

bool ThreadParker::wait_for(std::chrono::microseconds timeout) noexcept {
    if (!notified()) {
        const auto secs =
            std::chrono::duration_cast<std::chrono::seconds>(timeout);
        const timespec ts{
            static_cast<time_t>(secs.count()),
            static_cast<long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    timeout - secs)
                    .count())};
        sleep(&ts);
    }
    return notified();
}

}  // namespace lwt::sync
