// spawn_burst — Figures 2-3: each region creates 256 units per worker from
// the main thread and joins them all, alternating the per-unit calls
// (create_join_times) with the bulk calls (create_join_times_bulk), on
// every configuration. The bodies are empty but for one store, so the
// region time is descriptor allocation, stack acquisition and its page
// faults, enqueue + notify, and the join wake.
#include <atomic>
#include <functional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "configs.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kUnitsPerWorker = 256;
constexpr int kWarmupRegions = 2;   // one per-unit and one bulk
constexpr int kRegionsPerRound = 20;  // per configuration, alternating modes
constexpr int kMinRounds = 10;        // >= 100 regions per series

/// Layer totals of the traced run, per call mode.
struct PhaseTotals {
    double create_ms = 0;
    double join_ms = 0;
    double units = 0;
    long minflt = 0;
};

}  // namespace

void run_spawn_burst(const Options& opt, Report& rep) {
    Regions regions;
    std::vector<double> setups;
    int max_threads = 0;
    PhaseTotals per_unit;
    PhaseTotals bulk;
    std::vector<PhaseTotals> per_config(runner_configs().size());  // per-unit mode only
    const Counters before = read_counters();

    run_rounds(opt, kMinRounds, regions, [&](int round) {
        double setup_s = 0;
        for (std::size_t c = 0; c < runner_configs().size(); ++c) {
            const RunnerConfig& cfg = runner_configs()[c];
            where(cfg.slug, "boot", round);
            Span cfg_span(cfg.slug);
            const auto t_boot = Clock::now();
            auto runner = lwt::patterns::make_runner(cfg.variant, workers_for(cfg.main_is_worker));
            runner->set_units_per_thread(kUnitsPerWorker);
            const std::size_t n = runner->threads() * kUnitsPerWorker;
            std::vector<std::uint64_t> expected(n);
            for (std::size_t i = 0; i < n; ++i) {
                expected[i] = hash_chain(opt.seed, i, 0);
            }
            std::vector<std::uint64_t> slots(n);
            std::atomic<std::uint64_t> tickets{0};
            // Unit i is the unit that draws ticket i; it stores once into slot i.
            const std::function<void()> body = [&] {
                const std::uint64_t i = tickets.fetch_add(1, std::memory_order_relaxed);
                if (i < n) {
                    slots[i] += expected[i];
                }
            };
            const std::string unit_series = std::string(cfg.slug) + "/unit";
            const std::string bulk_series = std::string(cfg.slug) + "/bulk";

            auto region = [&](bool use_bulk, bool measured) {
                std::fill(slots.begin(), slots.end(), 0);
                tickets.store(0, std::memory_order_relaxed);
                where(cfg.slug, use_bulk ? "bulk" : "unit", round);
                Span span("region", cfg_span.id());
                const Usage u0 = opt.trace ? usage_now() : Usage{};
                const auto t0 = Clock::now();
                const auto [create_ms, join_ms] = use_bulk ? runner->create_join_times_bulk(body)
                                                           : runner->create_join_times(body);
                const auto t1 = Clock::now();
                span.end();
                rep.check("spawn_burst", cfg.slug, "slots_once",
                          check_burst(tickets.load(), slots, expected));
                if (!measured) {
                    return;
                }
                regions.add(use_bulk ? bulk_series : unit_series, us_between(t0, t1), n);
                if (opt.trace) {
                    const long minflt = (usage_now() - u0).minflt;
                    for (PhaseTotals* tot : {use_bulk ? &bulk : &per_unit,
                                             use_bulk ? nullptr : &per_config[c]}) {
                        if (tot != nullptr) {
                            tot->create_ms += create_ms;
                            tot->join_ms += join_ms;
                            tot->units += static_cast<double>(n);
                            tot->minflt += minflt;
                        }
                    }
                    // The runner times its create and join phases itself;
                    // record them as the region's two children.
                    SpanLog& log = SpanLog::instance();
                    const std::uint64_t r1 = log.now_ns();
                    const std::uint64_t r0 = r1 - static_cast<std::uint64_t>(us_between(t0, t1) * 1e3);
                    log.record("create", log.next_id(), span.id(), r0,
                               r0 + static_cast<std::uint64_t>(create_ms * 1e6));
                    log.record("join", log.next_id(), span.id(),
                               r1 - static_cast<std::uint64_t>(join_ms * 1e6), r1);
                }
            };

            for (int w = 0; w < kWarmupRegions; ++w) {
                region(w % 2 == 1, false);
            }
            setup_s += us_between(t_boot, Clock::now()) * 1e-6;
            max_threads = std::max(max_threads, os_threads_now());
            regions.begin_block();
            for (int k = 0; k < kRegionsPerRound; ++k) {
                region(k % 2 == 1, true);
            }
            regions.end_block();
        }
        setups.push_back(setup_s);
    });

    const Counters after = read_counters();
    report_common(opt, rep, regions, setups, before, after,
                  opt.trace ? rss_after_settle_mib() : 0.0, max_threads);
    for (const RunnerConfig& cfg : runner_configs()) {
        rep.ledger(std::string(cfg.slug) + ".spawn_region_us_p50",
                   regions.geomean_percentile_matching(0.5, std::string(cfg.slug) + "/"), "us");
    }
    rep.ledger("regions_per_series_min", static_cast<double>(regions.min_samples()), "count");
    if (opt.trace) {
        rep.ledger("core.create_ns_per_unit", ratio(per_unit.create_ms * 1e6, per_unit.units), "ns");
        rep.ledger("core.join_ns_per_unit", ratio(per_unit.join_ms * 1e6, per_unit.units), "ns");
        rep.ledger("core.bulk_create_ns_per_unit", ratio(bulk.create_ms * 1e6, bulk.units), "ns");
        rep.ledger("core.bulk_join_ns_per_unit", ratio(bulk.join_ms * 1e6, bulk.units), "ns");
        rep.ledger("arch.stack.minflt_per_unit",
                   ratio(static_cast<double>(per_unit.minflt + bulk.minflt),
                         per_unit.units + bulk.units),
                   "faults");
        rep.ledger("arch.stack.maps_per_kunit",
                   ratio(1000.0 * static_cast<double>(after.stack_maps - before.stack_maps),
                         per_unit.units + bulk.units),
                   "count");
        rep.ledger("core.join.signal_resume_us_p50",
                   registry_hist_quantile_us("join.signal_resume_ticks", 0.5), "us");
        rep.ledger("core.queue_dwell_us_p90", queue_dwell_quantile_us(0.9), "us");
        for (std::size_t c = 0; c < runner_configs().size(); ++c) {
            const std::string slug = runner_configs()[c].slug;
            const PhaseTotals& t = per_config[c];
            rep.ledger(slug + ".create_ns_per_unit", ratio(t.create_ms * 1e6, t.units), "ns");
            rep.ledger(slug + ".minflt_per_unit", ratio(static_cast<double>(t.minflt), t.units),
                       "faults");
        }
    }
}

}  // namespace perfbench
