#include "bench.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "abt/abt.hpp"
#include "arch/audit.hpp"
#include "arch/stack.hpp"
#include "core/metrics.hpp"
#include "core/trace_export.hpp"
#include "core/unit_cache.hpp"
#include "stats.hpp"

namespace perfbench {

void Report::check(std::string_view workload, std::string_view config, std::string_view check,
                   const std::string& why) {
    ++attempted;
    if (why.empty()) {
        return;
    }
    ++failed;
    if (reported_++ < 10) {
        std::fprintf(stderr, "FAIL workload=%.*s config=%.*s check=%.*s: %s\n",
                     static_cast<int>(workload.size()), workload.data(),
                     static_cast<int>(config.size()), config.data(),
                     static_cast<int>(check.size()), check.data(), why.c_str());
    }
}

void Report::metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::ledger(std::string name, double value, std::string unit) {
    ledger_.push_back({std::move(name), value, std::move(unit)});
}

// --- process probes ---------------------------------------------------------

Usage usage_now() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.minflt = ru.ru_minflt;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    return u;
}

Usage operator-(const Usage& a, const Usage& b) {
    return {a.cpu_s - b.cpu_s, a.minflt - b.minflt, a.nvcsw - b.nvcsw, a.nivcsw - b.nivcsw};
}

double rss_mib_now() {
    std::ifstream f("/proc/self/statm");
    long pages_total = 0;
    long pages_rss = 0;
    f >> pages_total >> pages_rss;
    return static_cast<double>(pages_rss) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double rss_after_settle_mib() {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return rss_mib_now();
}

namespace {
/// A "Name:   value" field of /proc/self/status, or -1.
long status_field(const char* name) {
    std::ifstream f("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(name);
    while (std::getline(f, line)) {
        if (line.compare(0, len, name) == 0 && line.size() > len && line[len] == ':') {
            return std::stol(line.substr(len + 1));
        }
    }
    return -1;
}
}  // namespace

double peak_rss_mib() {
    // VmHWM, not ru_maxrss: the latter carries the parent's resident set
    // across fork + exec, so a small program run from a larger one would
    // report its parent's peak.
    return static_cast<double>(status_field("VmHWM")) / 1024.0;  // KiB
}

int os_threads_now() { return static_cast<int>(status_field("Threads")); }

std::size_t cpu_budget() {
    long n = 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        n = CPU_COUNT(&set);
    }
    if (n <= 0) {
        n = ::sysconf(_SC_NPROCESSORS_ONLN);
    }
    // One CPU stays with the harness and the OS: with every CPU busy, any
    // other process preempts a runtime thread and the region times follow
    // the machine's load instead of the runtime.
    return n > 1 ? static_cast<std::size_t>(n - 1) : 1;
}

// --- region series ----------------------------------------------------------

void Regions::add(const std::string& series, double us, std::uint64_t ops) {
    series_[series].push_back(us);
    ops_per_region_[series] = ops;
    total_us_ += us;
    ops_ += ops;
    ++regions_;
}

double Regions::geomean_percentile_matching(double p, std::string_view part) const {
    std::vector<double> per_series;
    for (const auto& [name, samples] : series_) {
        if (name.find(part) != std::string::npos) {
            per_series.push_back(percentile(samples, p));
        }
    }
    return geomean(per_series);
}

void Regions::end_round() {
    std::vector<double> p50s;
    std::vector<double> p90s;
    double ops = 0;
    double median_us = 0;
    for (const auto& [name, samples] : series_) {
        std::size_t& begin = round_begin_[name];
        if (begin == samples.size()) {
            continue;  // not run this round
        }
        const std::vector<double> round(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                                        samples.end());
        begin = samples.size();
        p50s.push_back(percentile(round, 0.5));
        p90s.push_back(percentile(round, 0.9));
        ops += static_cast<double>(ops_per_region_.at(name));
        median_us += p50s.back();
    }
    const Usage used = block_usage_ - round_usage0_;
    const double wall_s = block_wall_s_ - round_wall0_;
    round_usage0_ = block_usage_;
    round_wall0_ = block_wall_s_;
    if (!p50s.empty()) {
        rounds_.push_back({geomean(p50s), geomean(p90s), ratio(ops, median_us * 1e-6),
                           ratio(used.cpu_s, wall_s)});
    }
}

std::size_t Regions::min_samples() const {
    std::size_t n = series_.empty() ? 0 : SIZE_MAX;
    for (const auto& [name, samples] : series_) {
        n = std::min(n, samples.size());
    }
    return n;
}

void Regions::begin_block() {
    block_u0_ = usage_now();
    block_t0_ = Clock::now();
}

void Regions::end_block() {
    const auto t1 = Clock::now();
    const Usage d = usage_now() - block_u0_;
    block_wall_s_ += us_between(block_t0_, t1) * 1e-6;
    block_usage_.cpu_s += d.cpu_s;
    block_usage_.minflt += d.minflt;
    block_usage_.nvcsw += d.nvcsw;
    block_usage_.nivcsw += d.nivcsw;
}

int run_rounds(const Options& opt, int min_rounds, Regions& regions,
               const std::function<void(int)>& round) {
    constexpr int kMaxRounds = 200;
    const auto t0 = Clock::now();
    int r = 0;
    while (r < min_rounds ||
           (r < kMaxRounds && us_between(t0, Clock::now()) < opt.seconds * 1e6)) {
        round(r);
        regions.end_round();
        ++r;
    }
    return r;
}

namespace {
std::atomic<const char*> g_workload{""};
std::atomic<const char*> g_config{""};
std::atomic<const char*> g_phase{""};
std::atomic<int> g_round{-1};

void put(const char* s) {
    const ssize_t n = ::write(STDERR_FILENO, s, std::strlen(s));
    (void)n;
}

void on_hang_signal(int) {
    // Only async-signal-safe calls here: format the round by hand.
    char digits[16];
    int len = 0;
    for (int r = std::max(0, g_round.load()); len == 0 || r > 0; r /= 10) {
        digits[len++] = static_cast<char>('0' + r % 10);
    }
    char round[16];
    for (int i = 0; i < len; ++i) {
        round[i] = digits[len - 1 - i];
    }
    round[len] = '\0';
    put("HANG workload=");
    put(g_workload.load());
    put(" config=");
    put(g_config.load());
    put(" phase=");
    put(g_phase.load());
    put(" round=");
    put(round);
    put("\n");
}
}  // namespace

void where(const char* config, const char* phase, int round) {
    g_config.store(config, std::memory_order_relaxed);
    g_phase.store(phase, std::memory_order_relaxed);
    g_round.store(round, std::memory_order_relaxed);
}

void install_hang_report(const char* workload) {
    g_workload.store(workload);
    struct sigaction sa {};
    sa.sa_handler = on_hang_signal;
    ::sigaction(SIGUSR1, &sa, nullptr);
}

// --- counters -----------------------------------------------------------------

Counters read_counters() {
    auto& reg = lwt::core::MetricsRegistry::instance();
    Counters c;
    c.stack_maps = lwt::arch::stack_map_count();
    const lwt::core::UnitCacheTotals t = lwt::core::unit_cache_totals();
    c.cache_allocs = t.allocs;
    c.cache_hits = t.hits;
    if (lwt::arch::audit::enabled()) {
        c.audit_rmw = lwt::arch::audit::snapshot().rmw;
    }
    c.steal_attempts = reg.counter("sched.steal.attempts").value();
    c.steal_hits = reg.counter("sched.steal.hits").value();
    c.idle_yields = reg.counter("sched.idle.yields").value();
    c.parks = reg.counter("sched.park.count").value();
    c.park_timeouts = reg.counter("sched.park.timeouts").value();
    c.suspends = reg.counter("sync.suspends").value();
    c.reactor_wakes = reg.counter("io.reactor.wakes").value();
    c.reactor_polls = reg.counter("io.reactor.polls").value();
    c.timer_fires = reg.counter("io.timer.fires").value();
    return c;
}

double registry_hist_quantile_us(const char* name, double p) {
    const auto snap = lwt::core::MetricsRegistry::instance().histogram(name).snapshot();
    return log2_hist_quantile(snap.buckets.data(), snap.buckets.size(), p) /
           lwt::core::tsc_ticks_per_us();
}

double queue_dwell_quantile_us(double p) {
    lwt::core::HistogramSnapshot all;
    for (const auto& m : lwt::core::Metrics::instance().unit_metrics()) {
        all += m.queue_dwell;
    }
    return log2_hist_quantile(all.buckets.data(), all.buckets.size(), p) /
           lwt::core::tsc_ticks_per_us();
}

void report_common(const Options& opt, Report& rep, const Regions& regions,
                   const std::vector<double>& setup_s, const Counters& before,
                   const Counters& after, double rss_after_mib, int max_threads) {
    const auto ops = static_cast<double>(regions.ops());
    const auto nreg = static_cast<double>(regions.regions());
    const Usage& blk = regions.block_usage();
    // Medians over rounds: the host's other tenants take CPU time in
    // bursts, and a burst that slows some rounds of a run moves a figure
    // pooled over the run, but not the median round.
    auto round_median = [&regions](double RoundSummary::*field) {
        std::vector<double> v;
        for (const RoundSummary& r : regions.rounds()) {
            v.push_back(r.*field);
        }
        return median(v);
    };
    const double p50_us = round_median(&RoundSummary::p50_us);
    rep.ledger("rounds", static_cast<double>(regions.rounds().size()), "count");
    if (!opt.trace) {
        rep.metric("setup_s", median(setup_s), "s");
        rep.metric("region_us_p50", p50_us, "us");
        rep.metric("ops_per_s", round_median(&RoundSummary::ops_per_s), "1/s");
        rep.metric("cpu_util", round_median(&RoundSummary::cpu_util), "cpus");
        rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        // Ungated: ten runs on the reference host spread by 0.22-0.27
        // (Q3 - Q1 over the median), about a bound's width (README).
        rep.ledger("region_us_p90", round_median(&RoundSummary::p90_us), "us");
        return;
    }
    rep.metric("arch.minflt_per_kop", ratio(1000.0 * static_cast<double>(blk.minflt), ops),
               "count");
    rep.metric("arch.stack.maps_per_kop",
               ratio(1000.0 * static_cast<double>(after.stack_maps - before.stack_maps), ops),
               "count");
    rep.metric("arch.rss_after_mib", rss_after_mib, "MiB");
    rep.metric("arch.ctx_switch_ns", ctx_switch_probe_ns(), "ns");
    rep.metric("core.queue_dwell_us_p50", queue_dwell_quantile_us(0.5), "us");
    rep.metric("core.unit_cache.hit_ratio",
               ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                     static_cast<double>(after.cache_allocs - before.cache_allocs)),
               "ratio");
    rep.metric("core.create.atomics_per_unit",
               ratio(static_cast<double>(after.audit_rmw - before.audit_rmw),
                     static_cast<double>(after.cache_allocs - before.cache_allocs)),
               "count");
    rep.metric("core.steal.hit_ratio",
               ratio(static_cast<double>(after.steal_hits - before.steal_hits),
                     static_cast<double>(after.steal_attempts - before.steal_attempts)),
               "ratio");
    rep.metric("core.idle.yields_per_region",
               ratio(static_cast<double>(after.idle_yields - before.idle_yields), nreg), "count");
    rep.metric("core.park.count_per_region",
               ratio(static_cast<double>(after.parks - before.parks), nreg), "count");
    rep.metric("core.park.timeouts_per_region",
               ratio(static_cast<double>(after.park_timeouts - before.park_timeouts), nreg),
               "count");
    rep.metric("sync.suspends_per_op",
               ratio(static_cast<double>(after.suspends - before.suspends), ops), "count");
    rep.metric("io.reactor.wakes_per_op",
               ratio(static_cast<double>(after.reactor_wakes - before.reactor_wakes), ops),
               "count");
    rep.metric("io.reactor.polls_per_op",
               ratio(static_cast<double>(after.reactor_polls - before.reactor_polls), ops),
               "count");
    rep.metric("proc.nvcsw_per_region", ratio(static_cast<double>(blk.nvcsw), nreg), "count");
    rep.metric("proc.nivcsw_per_region", ratio(static_cast<double>(blk.nivcsw), nreg), "count");
    rep.metric("proc.os_threads_max", max_threads, "count");
    rep.metric("trace.region_us_p50", p50_us, "us");
}

// --- spans ------------------------------------------------------------------

SpanLog& SpanLog::instance() {
    static SpanLog log;
    return log;
}

void SpanLog::enable(std::size_t cap) {
    std::lock_guard g(mu_);
    cap_ = cap;
    spans_.reserve(cap);
    enabled_ = true;
}

std::uint64_t SpanLog::now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
}

void SpanLog::record(const char* name, std::uint32_t id, std::uint32_t parent, std::uint64_t t0,
                     std::uint64_t t1) {
    std::lock_guard g(mu_);
    if (spans_.size() >= cap_) {
        ++dropped_;
        return;
    }
    spans_.push_back({t0, t1, id, parent, name});
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
    std::lock_guard g(mu_);
    std::vector<double> out;
    for (const SpanRec& s : spans_) {
        if (name == s.name) {
            out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
        }
    }
    return out;
}

std::size_t SpanLog::size() const {
    std::lock_guard g(mu_);
    return spans_.size();
}

bool SpanLog::write_json(const std::string& path) const {
    std::lock_guard g(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"fields\":[\"id\",\"parent\",\"name\",\"t0_ns\",\"t1_ns\"],\"dropped\":%llu,"
                    "\"spans\":[\n",
                 static_cast<unsigned long long>(dropped_));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec& s = spans_[i];
        std::fprintf(f, "[%u,%u,\"%s\",%llu,%llu]%s\n", s.id, s.parent, s.name,
                     static_cast<unsigned long long>(s.t0_ns),
                     static_cast<unsigned long long>(s.t1_ns), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint32_t parent) : name_(name), parent_(parent) {
    SpanLog& log = SpanLog::instance();
    if (log.enabled()) {
        id_ = log.next_id();
        t0_ = log.now_ns();
        open_ = true;
    }
}

void Span::end() {
    if (!open_) {
        return;
    }
    open_ = false;
    SpanLog& log = SpanLog::instance();
    log.record(name_, id_, parent_, t0_, log.now_ns());
}

// --- context-switch probe -------------------------------------------------------

double ctx_switch_probe_ns() {
    constexpr int kYields = 20000;
    lwt::abt::Config c;
    c.num_xstreams = 1;  // the calling thread is the only stream
    lwt::abt::Library lib(c);
    std::vector<double> per_yield_ns;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        auto a = lib.thread_create([] {
            for (int i = 0; i < kYields; ++i) {
                lwt::abt::Library::yield();
            }
        }, 0);
        auto b = lib.thread_create([] {
            for (int i = 0; i < kYields; ++i) {
                lwt::abt::Library::yield();
            }
        }, 0);
        a.free();
        b.free();
        per_yield_ns.push_back(us_between(t0, Clock::now()) * 1e3 / (2.0 * kYields));
    }
    return median(per_yield_ns);
}

}  // namespace perfbench
