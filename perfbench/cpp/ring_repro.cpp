// ring_repro — reproducer for a known fault that the benchmark's workloads
// leave out (perfbench/README.md, "Known faults"): glt's cvt backend turns
// ult_create into a Converse Message, which cannot suspend, so a ring of
// RING channel-blocking units on WORKERS PEs deadlocks whenever
// RING > WORKERS.
//
//   perfbench_ring_repro RING WORKERS [backend]
//
// Builds a ring of RING units through glt::Runtime::ult_create on
// `backend` (default cvt) with WORKERS workers; each unit passes a token on
// unbuffered channels for 4 laps, and the main thread joins them all.
// Prints "ok" and exits 0 when the ring completes; prints "stuck" and exits
// 3 when it has not completed within 5 s (a stuck runtime cannot be torn
// down, so the process ends itself). The other backends complete the same
// rings.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "glt/glt.hpp"

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: %s RING WORKERS [abt|qth|mth|cvt|gol]\n", argv[0]);
        return 2;
    }
    const std::size_t ring = std::strtoul(argv[1], nullptr, 10);
    const std::size_t workers = std::strtoul(argv[2], nullptr, 10);
    const auto backend = lwt::glt::backend_from_name(argc > 3 ? argv[3] : "cvt");
    if (ring < 2 || ring > 4096 || workers < 1 || workers > 64 || !backend) {
        std::fprintf(stderr, "need 2 <= RING <= 4096, 1 <= WORKERS <= 64, a known backend\n");
        return 2;
    }
    constexpr std::size_t kLaps = 4;
    std::atomic<bool> finished{false};
    std::thread watchdog([&] {
        const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!finished.load() && std::chrono::steady_clock::now() < until) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!finished.load()) {
            std::printf("stuck: ring of %zu units on %zu workers did not finish in 5 s\n", ring,
                        workers);
            std::fflush(stdout);
            std::_Exit(3);
        }
    });

    auto rt = lwt::glt::Runtime::create(*backend, workers);
    std::vector<std::unique_ptr<lwt::glt::Channel<std::uint64_t>>> ch;
    for (std::size_t i = 0; i < ring; ++i) {
        ch.push_back(std::make_unique<lwt::glt::Channel<std::uint64_t>>());
    }
    std::uint64_t token = 0;
    std::vector<lwt::glt::UnitToken> units;
    for (std::size_t i = 0; i < ring; ++i) {
        units.push_back(rt->ult_create([&, i] {
            if (i == 0) {
                std::uint64_t t = 0;
                for (std::size_t l = 0; l < kLaps; ++l) {
                    ch[1]->send(t + 1);
                    t = ch[0]->recv().value_or(0);
                }
                token = t;
                return;
            }
            for (std::size_t l = 0; l < kLaps; ++l) {
                ch[(i + 1) % ring]->send(ch[i]->recv().value_or(0) + 1);
            }
        }));
    }
    rt->join_all(units);
    finished.store(true);
    watchdog.join();
    const bool ok = token == ring * kLaps;
    std::printf("%s: ring of %zu units on %zu workers, token %llu\n", ok ? "ok" : "wrong token",
                ring, workers, static_cast<unsigned long long>(token));
    rt.reset();
    return ok ? 0 : 1;
}
