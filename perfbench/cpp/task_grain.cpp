// task_grain — Figures 4-8: the for_loop, task_single, task_parallel,
// nested_for and nested_task shapes on every configuration but three of
// abt's (grain_configs(): they hang now and then here). Element i runs a
// chain of g splitmix64 steps seeded by i and adds the result to its
// output slot. The shapes run at one fixed grain; task_parallel (Fig 6) is
// also swept over a geometric grain ladder for METG(50%).
#include <array>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "configs.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kElems = 512;
constexpr std::size_t kOuter = 16;  // nested shapes: kOuter x kInner = kElems
constexpr std::size_t kInner = 32;
constexpr unsigned kFixedGrain = 256;
constexpr std::array<unsigned, 7> kLadder{4, 16, 64, 256, 1024, 4096, 16384};
constexpr int kWarmupRegions = 1;    // per shape
constexpr int kShapeRegions = 12;    // per shape, configuration and round
constexpr int kLadderRegions = 2;    // per rung, configuration and round
constexpr int kMinRounds = 9;        // >= 100 regions per series

constexpr std::array<const char*, 5> kShapes{"for_loop", "task_single", "task_parallel",
                                             "nested_for", "nested_task"};

void run_shape(lwt::patterns::PatternRunner& r, std::size_t shape, unsigned g, std::uint64_t seed,
               std::vector<std::uint64_t>& out) {
    const lwt::patterns::ElemFn elem = [&out, seed, g](std::size_t i) {
        out[i] += hash_chain(seed, i, g);
    };
    const lwt::patterns::Elem2Fn elem2 = [&out, seed, g](std::size_t i, std::size_t j) {
        const std::size_t k = i * kInner + j;
        out[k] += hash_chain(seed, k, g);
    };
    switch (shape) {
        case 0: r.for_loop(kElems, elem); break;
        case 1: r.task_single(kElems, elem); break;
        case 2: r.task_parallel(kElems, elem); break;
        case 3: r.nested_for(kOuter, kInner, elem2); break;
        default: r.nested_task(kOuter, kInner, elem2); break;
    }
}

}  // namespace

void run_task_grain(const Options& opt, Report& rep) {
    Regions regions;
    std::vector<double> setups;
    int max_threads = 0;
    // Serial per-task time (µs) per rung, one sample per round, and the
    // expected outputs it produces.
    std::array<std::vector<double>, kLadder.size()> t_serial;
    std::array<std::vector<std::uint64_t>, kLadder.size()> expected;
    std::vector<std::uint64_t> expected_fixed;
    // Region times per (configuration, rung) of the Fig 6 ladder.
    std::vector<std::array<std::vector<double>, kLadder.size()>> ladder_us(grain_configs().size());
    std::vector<std::size_t> workers(grain_configs().size());
    const Counters before = read_counters();

    run_rounds(opt, kMinRounds, regions, [&](int round) {
        const auto t_round = Clock::now();
        // The serial reference: a plain loop over the same body, timed per
        // rung; it also yields the outputs every region is checked against.
        for (std::size_t k = 0; k < kLadder.size(); ++k) {
            std::vector<std::uint64_t> ref(kElems);
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < kElems; ++i) {
                ref[i] = hash_chain(opt.seed, i, kLadder[k]);
            }
            t_serial[k].push_back(us_between(t0, Clock::now()) / kElems);
            expected[k] = std::move(ref);
        }
        expected_fixed.resize(kElems);
        for (std::size_t i = 0; i < kElems; ++i) {
            expected_fixed[i] = hash_chain(opt.seed, i, kFixedGrain);
        }
        double setup_s = us_between(t_round, Clock::now()) * 1e-6;

        std::vector<std::uint64_t> out(kElems);
        for (std::size_t c = 0; c < grain_configs().size(); ++c) {
            const RunnerConfig& cfg = grain_configs()[c];
            where(cfg.slug, "boot", round);
            Span cfg_span(cfg.slug);
            const auto t_boot = Clock::now();
            auto runner = lwt::patterns::make_runner(cfg.variant, workers_for(cfg.main_is_worker));
            workers[c] = runner->threads();

            auto region = [&](std::size_t shape, unsigned g,
                              const std::vector<std::uint64_t>& want) -> double {
                std::fill(out.begin(), out.end(), 0);
                where(cfg.slug, kShapes[shape], round);
                Span span(kShapes[shape], cfg_span.id());
                const auto t0 = Clock::now();
                run_shape(*runner, shape, g, opt.seed, out);
                const double us = us_between(t0, Clock::now());
                span.end();
                rep.check("task_grain", cfg.slug, kShapes[shape], check_outputs(out, want));
                return us;
            };

            for (std::size_t s = 0; s < kShapes.size(); ++s) {
                for (int w = 0; w < kWarmupRegions; ++w) {
                    region(s, kFixedGrain, expected_fixed);
                }
            }
            setup_s += us_between(t_boot, Clock::now()) * 1e-6;
            max_threads = std::max(max_threads, os_threads_now());

            regions.begin_block();
            for (int k = 0; k < kShapeRegions; ++k) {
                for (std::size_t s = 0; s < kShapes.size(); ++s) {
                    const double us = region(s, kFixedGrain, expected_fixed);
                    regions.add(std::string(cfg.slug) + "/" + kShapes[s], us, kElems);
                }
            }
            regions.end_block();
            for (std::size_t k = 0; k < kLadder.size(); ++k) {
                for (int j = 0; j < kLadderRegions; ++j) {
                    ladder_us[c][k].push_back(region(2, kLadder[k], expected[k]));
                }
            }
        }
        setups.push_back(setup_s);
    });

    const Counters after = read_counters();
    report_common(opt, rep, regions, setups, before, after,
                  opt.trace ? rss_after_settle_mib() : 0.0, max_threads);

    // METG(50%) per configuration on the Fig 6 shape.
    std::vector<double> metgs;
    int unreached = 0;
    for (std::size_t c = 0; c < grain_configs().size(); ++c) {
        std::vector<LadderPoint> ladder;
        for (std::size_t k = 0; k < kLadder.size(); ++k) {
            const double ts = median(t_serial[k]);
            ladder.push_back({ts, efficiency(kElems, ts, static_cast<double>(workers[c]),
                                             median(ladder_us[c][k]))});
        }
        const Metg m = metg(ladder);
        unreached += m.kind == MetgKind::kNever ? 1 : 0;
        metgs.push_back(m.us);
        rep.ledger(std::string(grain_configs()[c].slug) + ".metg_us", m.us, "us");
    }
    rep.ledger("metg_us", geomean(metgs), "us");
    rep.ledger("metg_unreached_configs", unreached, "count");
    for (std::size_t k = 0; k < kLadder.size(); ++k) {
        rep.ledger("serial_ns.g" + std::to_string(kLadder[k]), median(t_serial[k]) * 1e3, "ns");
    }
    for (const RunnerConfig& cfg : grain_configs()) {
        rep.ledger(std::string(cfg.slug) + ".grain_region_us_p50",
                   regions.geomean_percentile_matching(0.5, std::string(cfg.slug) + "/"), "us");
    }
    for (const char* shape : kShapes) {
        rep.ledger(std::string("patterns.") + shape + ".region_us_p50",
                   regions.geomean_percentile_matching(0.5, std::string("/") + shape), "us");
    }
    rep.ledger("regions_per_series_min", static_cast<double>(regions.min_samples()), "count");
    if (opt.trace) {
        rep.ledger("core.queue_dwell_us_p90", queue_dwell_quantile_us(0.9), "us");
        rep.ledger("core.join.signal_resume_us_p50",
                   registry_hist_quantile_us("join.signal_resume_ticks", 0.5), "us");
    }
}

}  // namespace perfbench
