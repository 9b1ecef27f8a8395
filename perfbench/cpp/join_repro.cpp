// join_repro — reproducer for a known fault that task_grain leaves out
// (perfbench/README.md, "Known faults"): on abt a stream now and then never
// returns from waking a joiner, so the region (private pools) or the
// runtime's teardown (shared pool) then waits for that stream forever.
//
//   perfbench_join_repro [SECONDS] [WORKERS] [slug]
//
// Repeats, for SECONDS (default 60): boot the patterns runner of the
// configuration `slug` (configs.hpp; default abt.ult_shared) with WORKERS
// workers (default 3), run 200 regions of task_grain's five shapes in turn
// with a one-store body, tear the runner down.
// Prints "ok" and exits 0 when the time is up; prints "stuck", with the
// state and wait channel of each thread of the process, and exits 3 when no
// region or teardown has finished for 5 s (a stuck runtime cannot be torn
// down, so the process ends itself).
#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "configs.hpp"

namespace {

/// The configuration with this slug (configs.hpp), or nullptr.
const perfbench::RunnerConfig* config_named(const std::string& slug) {
    for (const perfbench::RunnerConfig& cfg : perfbench::runner_configs()) {
        if (slug == cfg.slug) {
            return &cfg;
        }
    }
    return nullptr;
}

std::string first_line(const std::string& path) {
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

/// One line per thread: tid, run state, wait channel and the syscall it
/// sleeps in (number and first argument, as /proc gives them).
void print_threads() {
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) {
        return;
    }
    while (const dirent* e = ::readdir(dir)) {
        if (e->d_name[0] == '.') {
            continue;
        }
        const std::string base = std::string("/proc/self/task/") + e->d_name;
        const std::string stat = first_line(base + "/stat");
        const std::size_t paren = stat.rfind(')');
        const char state = paren != std::string::npos && paren + 2 < stat.size()
                               ? stat[paren + 2]
                               : '?';
        std::printf("  tid %s state %c wchan %s syscall %s\n", e->d_name, state,
                    first_line(base + "/wchan").c_str(),
                    first_line(base + "/syscall").substr(0, 32).c_str());
    }
    ::closedir(dir);
}

}  // namespace

int main(int argc, char** argv) {
    const double seconds = argc > 1 ? std::strtod(argv[1], nullptr) : 60.0;
    const std::size_t workers = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3;
    const perfbench::RunnerConfig* cfg = config_named(argc > 3 ? argv[3] : "abt.ult_shared");
    if (seconds <= 0 || workers < 1 || workers > 64 || cfg == nullptr) {
        std::fprintf(stderr, "usage: %s [SECONDS > 0] [1 <= WORKERS <= 64] [slug]\n", argv[0]);
        return 2;
    }
    constexpr int kRegionsPerRuntime = 200;
    std::atomic<long> regions{0};
    std::atomic<long> runtimes{0};  // torn down
    std::atomic<bool> finished{false};
    std::thread watchdog([&] {
        long last = -1;
        auto since = std::chrono::steady_clock::now();
        while (!finished.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            const long now = regions.load() + runtimes.load();
            if (now != last) {
                last = now;
                since = std::chrono::steady_clock::now();
            } else if (std::chrono::steady_clock::now() - since > std::chrono::seconds(5)) {
                std::printf("stuck: no progress for 5 s after %ld regions and %ld teardowns\n",
                            regions.load(), runtimes.load());
                print_threads();
                std::fflush(stdout);
                std::_Exit(3);
            }
        }
    });

    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 32;
    std::vector<std::uint64_t> out(kOuter * kInner);
    const lwt::patterns::ElemFn body = [&out](std::size_t i) { out[i] += i; };
    const lwt::patterns::Elem2Fn body2 = [&out](std::size_t i, std::size_t j) {
        out[i * kInner + j] += i;
    };
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() <
           seconds) {
        auto runner = lwt::patterns::make_runner(cfg->variant, workers);
        for (int k = 0; k < kRegionsPerRuntime; ++k) {
            switch (k % 5) {
                case 0: runner->for_loop(out.size(), body); break;
                case 1: runner->task_single(out.size(), body); break;
                case 2: runner->task_parallel(out.size(), body); break;
                case 3: runner->nested_for(kOuter, kInner, body2); break;
                default: runner->nested_task(kOuter, kInner, body2); break;
            }
            regions.fetch_add(1);
        }
        runner.reset();  // the teardown is where a stuck stream shows
        runtimes.fetch_add(1);
    }
    finished.store(true);
    watchdog.join();
    std::printf("ok: %ld regions and %ld teardowns\n", regions.load(), runtimes.load());
    return 0;
}
