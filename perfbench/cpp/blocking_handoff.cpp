// blocking_handoff — long-lived units that suspend, on the personalities
// through their own suspendable unit: qth forks, mth threads, cvt Cth
// threads made by cth_create on their home PE, and gol goroutines. (abt is
// left out: with its default private pools a batch now and then never
// completes; see perfbench/README.md, "Known faults".) Each batch is one sub-phase, created and joined by the main
// thread:
//   ring       a token ring of unbuffered channels, more ULTs than workers
//   mutex      a contended Mutex-guarded counter
//   semaphore  a Semaphore-bounded producer/consumer queue
//   condvar    a Condvar ping-pong
// Every personality also runs once more with the idle policy set to park.
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "configs.hpp"
#include "core/channel.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Body = std::function<void(std::size_t)>;

/// One personality: creates `n` suspendable units running body(i) from the
/// main thread and joins them all, with "create" and "join" spans.
class Personality {
  public:
    virtual ~Personality() = default;
    virtual void batch(std::size_t n, const Body& body, std::uint32_t span_parent) = 0;
};

class Qth final : public Personality {
  public:
    explicit Qth(std::size_t workers) : lib_(config(workers)) {}
    void batch(std::size_t n, const Body& body, std::uint32_t parent) override {
        std::vector<lwt::qth::aligned_t> done(n, 0);
        Span create("create", parent);
        for (std::size_t i = 0; i < n; ++i) {
            lib_.fork_to([&body, i] { body(i); }, &done[i], i % lib_.num_shepherds());
        }
        create.end();
        Span join("join", parent);
        for (auto& d : done) {
            lib_.read_ff(&d);
        }
    }

  private:
    static lwt::qth::Config config(std::size_t workers) {
        lwt::qth::Config c;
        c.num_shepherds = workers;
        c.workers_per_shepherd = 1;
        return c;
    }
    lwt::qth::Library lib_;
};

class Mth final : public Personality {
  public:
    explicit Mth(std::size_t workers) : lib_(config(workers)) {}
    void batch(std::size_t n, const Body& body, std::uint32_t parent) override {
        lib_.run([&] {
            std::vector<lwt::mth::ThreadHandle> units;
            units.reserve(n);
            Span create("create", parent);
            for (std::size_t i = 0; i < n; ++i) {
                units.push_back(lib_.create([&body, i] { body(i); }));
            }
            create.end();
            Span join("join", parent);
            for (auto& u : units) {
                u.join();
            }
        });
    }

  private:
    static lwt::mth::Config config(std::size_t workers) {
        lwt::mth::Config c;
        c.num_workers = workers;
        return c;
    }
    lwt::mth::Library lib_;
};

/// Converse: a message to PE p runs cth_create there, so each Cth thread
/// lives on its home PE p. The main thread drives PE 0 until every thread
/// has signalled, then joins the (finished) threads.
class Cvt final : public Personality {
  public:
    explicit Cvt(std::size_t workers) : lib_(config(workers)) {}
    void batch(std::size_t n, const Body& body, std::uint32_t parent) override {
        std::vector<lwt::cvt::CthHandle> units(n);
        lwt::core::EventCounter done;
        done.add(static_cast<std::int64_t>(n));
        Span create("create", parent);
        for (std::size_t i = 0; i < n; ++i) {
            lib_.send_message(i % lib_.num_pes(), [this, &units, &body, &done, i] {
                units[i] = lib_.cth_create([&body, &done, i] {
                    body(i);
                    done.signal();
                });
            });
        }
        create.end();
        Span join("join", parent);
        lib_.scheduler_run_until([&done] { return done.value() == 0; });
        units.clear();
    }

  private:
    static lwt::cvt::Config config(std::size_t workers) {
        lwt::cvt::Config c;
        c.num_pes = workers;
        return c;
    }
    lwt::cvt::Library lib_;
};

class Gol final : public Personality {
  public:
    explicit Gol(std::size_t workers) : lib_(config(workers)) {}
    void batch(std::size_t n, const Body& body, std::uint32_t parent) override {
        lwt::gol::WaitGroup wg;
        wg.add(static_cast<std::int64_t>(n));
        Span create("create", parent);
        for (std::size_t i = 0; i < n; ++i) {
            lib_.go([&body, &wg, i] {
                body(i);
                wg.done();
            });
        }
        create.end();
        Span join("join", parent);
        wg.wait();
    }

  private:
    static lwt::gol::Config config(std::size_t workers) {
        lwt::gol::Config c;
        c.num_threads = workers;
        return c;
    }
    lwt::gol::Library lib_;
};

struct HandoffConfig {
    const char* slug;
    bool park;
    bool main_is_worker;
    std::unique_ptr<Personality> (*make)(std::size_t workers);
};

template <typename P>
std::unique_ptr<Personality> make(std::size_t workers) {
    return std::make_unique<P>(workers);
}

const std::vector<HandoffConfig>& handoff_configs() {
    static const std::vector<HandoffConfig> kConfigs{
        {"qth", false, false, make<Qth>},      {"mth", false, true, make<Mth>},
        {"cvt", false, true, make<Cvt>},       {"gol", false, false, make<Gol>},
        {"qth.park", true, false, make<Qth>},  {"mth.park", true, true, make<Mth>},
        {"cvt.park", true, true, make<Cvt>},   {"gol.park", true, false, make<Gol>},
    };
    return kConfigs;
}

constexpr std::size_t kLaps = 16;
constexpr std::size_t kLockers = 8;
constexpr std::size_t kLocksEach = 32;
constexpr std::size_t kProducers = 4;
constexpr std::size_t kConsumers = 4;
constexpr std::size_t kValues = 256;
constexpr std::int64_t kQueueSlots = 8;
constexpr std::size_t kPingPongs = 64;
constexpr int kBatchesPerRound = 36;  // per sub-phase and configuration
constexpr int kMinRounds = 3;         // >= 100 batches per series

constexpr std::array<const char*, 4> kPhases{"ring", "mutex", "semaphore", "condvar"};

/// Inputs of the four sub-phases, made from the seed.
struct Inputs {
    std::size_t ring = 0;
    std::uint64_t ring_start = 0;
    std::vector<std::uint64_t> addends;   // one per mutex locker
    std::vector<std::uint64_t> produced;  // permutation of 1..kValues
};

Inputs make_inputs(std::uint64_t seed, std::size_t cpus) {
    Inputs in;
    in.ring = 2 * cpus;
    in.ring_start = mix64(seed) % 1000;
    for (std::size_t j = 0; j < kLockers; ++j) {
        in.addends.push_back(1 + mix64(seed ^ (j + 1)) % 1000);
    }
    for (std::uint64_t v = 1; v <= kValues; ++v) {
        in.produced.push_back(v);
    }
    for (std::size_t i = kValues - 1; i > 0; --i) {
        std::swap(in.produced[i], in.produced[mix64(seed + i) % (i + 1)]);
    }
    return in;
}

/// Blocking operations one batch of a sub-phase completes.
std::uint64_t phase_ops(std::size_t phase, const Inputs& in) {
    switch (phase) {
        case 0: return in.ring * kLaps;               // channel hops
        case 1: return kLockers * kLocksEach;         // lock acquisitions
        case 2: return 2 * kValues;                   // semaphore waits
        default: return kPingPongs;                   // condvar round trips
    }
}

/// Run one batch of sub-phase `phase`; returns the check's verdict.
std::string run_phase(Personality& p, std::size_t phase, const Inputs& in,
                      std::uint32_t parent) {
    using lwt::core::Channel;
    using lwt::core::Mutex;
    switch (phase) {
        case 0: {
            std::vector<std::unique_ptr<Channel<std::uint64_t>>> ch;
            for (std::size_t i = 0; i < in.ring; ++i) {
                ch.push_back(std::make_unique<Channel<std::uint64_t>>());
            }
            std::uint64_t final_token = 0;
            p.batch(in.ring, [&](std::size_t i) {
                if (i == 0) {
                    std::uint64_t tok = in.ring_start;
                    for (std::size_t l = 0; l < kLaps; ++l) {
                        ch[1]->send(tok + 1);
                        tok = ch[0]->recv().value_or(0);
                    }
                    final_token = tok;
                    return;
                }
                for (std::size_t l = 0; l < kLaps; ++l) {
                    const std::uint64_t v = ch[i]->recv().value_or(0);
                    ch[(i + 1) % in.ring]->send(v + 1);
                }
            }, parent);
            return check_ring(final_token, in.ring_start, in.ring, kLaps);
        }
        case 1: {
            Mutex m;
            std::uint64_t counter = 0;
            p.batch(kLockers, [&](std::size_t i) {
                for (std::size_t k = 0; k < kLocksEach; ++k) {
                    std::lock_guard g(m);
                    counter += in.addends[i];
                }
            }, parent);
            std::uint64_t want = 0;
            for (std::uint64_t a : in.addends) {
                want += a * kLocksEach;
            }
            return check_total(counter, want);
        }
        case 2: {
            lwt::core::Semaphore empty(kQueueSlots);
            lwt::core::Semaphore full(0);
            Mutex m;
            std::deque<std::uint64_t> queue;
            std::vector<std::vector<std::uint64_t>> got(kConsumers);
            p.batch(kProducers + kConsumers, [&](std::size_t i) {
                if (i < kProducers) {
                    for (std::size_t k = i; k < kValues; k += kProducers) {
                        empty.acquire();
                        {
                            std::lock_guard g(m);
                            queue.push_back(in.produced[k]);
                        }
                        full.release();
                    }
                    return;
                }
                auto& mine = got[i - kProducers];
                for (std::size_t k = 0; k < kValues / kConsumers; ++k) {
                    full.acquire();
                    std::uint64_t v = 0;
                    {
                        std::lock_guard g(m);
                        v = queue.front();
                        queue.pop_front();
                    }
                    empty.release();
                    mine.push_back(v);
                }
            }, parent);
            std::vector<std::uint32_t> seen(kValues + 1, 0);
            std::uint64_t sum = 0;
            for (const auto& mine : got) {
                for (std::uint64_t v : mine) {
                    sum += v;
                    if (v >= 1 && v <= kValues) {
                        ++seen[v];
                    }
                }
            }
            return check_consumed(seen, sum, kValues);
        }
        default: {
            Mutex m;
            lwt::core::Condvar cv;
            std::size_t turn = 0;
            std::uint64_t passes = 0;
            p.batch(2, [&](std::size_t i) {
                for (std::size_t q = 0; q < kPingPongs; ++q) {
                    std::lock_guard g(m);
                    cv.wait(m, [&] { return turn == i; });
                    turn = 1 - i;
                    ++passes;
                    cv.notify_one();
                }
            }, parent);
            return check_total(passes, 2 * kPingPongs);
        }
    }
}

}  // namespace

void run_blocking_handoff(const Options& opt, Report& rep) {
    Regions regions;
    std::vector<double> setups;
    int max_threads = 0;
    const Inputs in = make_inputs(opt.seed, cpu_budget());
    const auto& configs = handoff_configs();
    std::vector<std::uint64_t> park_timeouts(configs.size(), 0);
    std::vector<std::uint64_t> parks(configs.size(), 0);
    const Counters before = read_counters();

    run_rounds(opt, kMinRounds, regions, [&](int round) {
        double setup_s = 0;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const HandoffConfig& cfg = configs[c];
            where(cfg.slug, "boot", round);
            Span cfg_span(cfg.slug);
            const Counters c0 = read_counters();
            const auto t_boot = Clock::now();
            if (cfg.park) {
                lwt::core::set_default_idle_policy(lwt::sync::IdlePolicy::kPark);
            }
            std::unique_ptr<Personality> p = cfg.make(workers_for(cfg.main_is_worker));
            lwt::core::set_default_idle_policy(std::nullopt);

            auto batch = [&](std::size_t phase) -> double {
                where(cfg.slug, kPhases[phase], round);
                Span span(kPhases[phase], cfg_span.id());
                const auto t0 = Clock::now();
                const std::string why = run_phase(*p, phase, in, span.id());
                const double us = us_between(t0, Clock::now());
                span.end();
                rep.check("blocking_handoff", cfg.slug, kPhases[phase], why);
                return us;
            };
            for (std::size_t ph = 0; ph < kPhases.size(); ++ph) {
                batch(ph);
            }
            setup_s += us_between(t_boot, Clock::now()) * 1e-6;
            max_threads = std::max(max_threads, os_threads_now());

            regions.begin_block();
            for (int k = 0; k < kBatchesPerRound; ++k) {
                for (std::size_t ph = 0; ph < kPhases.size(); ++ph) {
                    const double us = batch(ph);
                    regions.add(std::string(cfg.slug) + "/" + kPhases[ph], us, phase_ops(ph, in));
                }
            }
            regions.end_block();
            p.reset();  // streams fold their idle counters at teardown
            const Counters c1 = read_counters();
            park_timeouts[c] += c1.park_timeouts - c0.park_timeouts;
            parks[c] += c1.parks - c0.parks;
        }
        setups.push_back(setup_s);
    });

    const Counters after = read_counters();
    report_common(opt, rep, regions, setups, before, after,
                  opt.trace ? rss_after_settle_mib() : 0.0, max_threads);

    // Per-configuration throughput and per-sub-phase cost per operation.
    for (std::size_t c = 0; c < configs.size(); ++c) {
        double ops = 0;
        double us = 0;
        for (std::size_t ph = 0; ph < kPhases.size(); ++ph) {
            const auto& s = regions.series().at(std::string(configs[c].slug) + "/" + kPhases[ph]);
            for (double x : s) {
                us += x;
            }
            ops += static_cast<double>(phase_ops(ph, in) * s.size());
        }
        rep.ledger(std::string(configs[c].slug) + ".sync_ops_per_s", ratio(ops, us * 1e-6), "1/s");
        rep.ledger(std::string(configs[c].slug) + ".chan_hop_us",
                   median(regions.series().at(std::string(configs[c].slug) + "/ring")) /
                       static_cast<double>(phase_ops(0, in)),
                   "us");
        if (configs[c].park) {
            const double batches = static_cast<double>(
                regions.series().at(std::string(configs[c].slug) + "/ring").size() *
                kPhases.size());
            rep.ledger(std::string(configs[c].slug) + ".parks_per_region",
                       ratio(static_cast<double>(parks[c]), batches), "count");
            rep.ledger(std::string(configs[c].slug) + ".park_timeouts_per_region",
                       ratio(static_cast<double>(park_timeouts[c]), batches), "count");
        }
    }
    const std::array<std::pair<const char*, double>, 4> per_op{{
        {"sync.chan_hop_us", 1.0},
        {"sync.mutex_op_ns", 1e3},
        {"sync.sem_op_ns", 1e3},
        {"sync.condvar_rtt_us", 1.0},
    }};
    for (std::size_t ph = 0; ph < kPhases.size(); ++ph) {
        rep.ledger(per_op[ph].first,
                   regions.geomean_percentile_matching(0.5, std::string("/") + kPhases[ph]) /
                       static_cast<double>(phase_ops(ph, in)) * per_op[ph].second,
                   ph == 1 || ph == 2 ? "ns" : "us");
    }
    rep.ledger("sync_ops_per_s", ratio(static_cast<double>(regions.ops()),
                                       regions.total_us() * 1e-6), "1/s");
    rep.ledger("regions_per_series_min", static_cast<double>(regions.min_samples()), "count");
    if (opt.trace) {
        rep.ledger("sync.wake_us_p50", registry_hist_quantile_us("sync.wake_latency_ticks", 0.5),
                   "us");
        rep.ledger("sync.wake_us_p99", registry_hist_quantile_us("sync.wake_latency_ticks", 0.99),
                   "us");
        rep.ledger("core.join.signal_resume_us_p50",
                   registry_hist_quantile_us("join.signal_resume_ticks", 0.5), "us");
    }
}

}  // namespace perfbench
