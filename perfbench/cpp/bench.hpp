// bench.hpp — shared harness of the repo benchmark: options, the report
// each workload fills, process probes (getrusage, RSS, thread count),
// region series, the round loop and the span log of traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// What one workload run produces: checked operations, metrics for the
/// final JSON line, and the workload's own ledger (figures only this
/// workload reaches, printed on the LEDGER line).
class Report {
  public:
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// Count one checked operation; a non-empty `why` marks it failed and
    /// names the workload, configuration and check on stderr.
    void check(std::string_view workload, std::string_view config, std::string_view check,
               const std::string& why);

    void metric(std::string name, double value, std::string unit);
    void ledger(std::string name, double value, std::string unit);

    const std::vector<Metric>& metrics() const { return metrics_; }
    const std::vector<Metric>& ledger_entries() const { return ledger_; }

  private:
    std::vector<Metric> metrics_;
    std::vector<Metric> ledger_;
    int reported_ = 0;
};

// --- process probes ---------------------------------------------------------

struct Usage {
    double cpu_s = 0;  ///< user + system
    long minflt = 0;
    long nvcsw = 0;
    long nivcsw = 0;
};
Usage usage_now();
Usage operator-(const Usage& a, const Usage& b);
double rss_mib_now();
/// Resident set 200 ms after the caller's last region (µs-scale frees and
/// decommits have settled by then).
double rss_after_settle_mib();
double peak_rss_mib();
int os_threads_now();
/// CPUs the runtime under test may use: the process's affinity mask (not
/// the machine) less one CPU left to the harness and the OS; at least 1.
std::size_t cpu_budget();

// --- region series ----------------------------------------------------------

/// What one round's regions give; the end-to-end metrics are medians of
/// these over the rounds of a run.
struct RoundSummary {
    double p50_us;     ///< geometric mean over series of the series' median
    double p90_us;     ///< the same with each series' 90th percentile
    double ops_per_s;  ///< Σ one region's ops / Σ the series' median times
    double cpu_util;   ///< CPU-seconds per wall-second of the round's blocks
};

/// Region times (µs) per series ("<config>/<shape>"), plus the measured
/// phase's wall, CPU and operation totals, and one summary per round.
class Regions {
  public:
    void add(const std::string& series, double us, std::uint64_t ops);
    /// Geometric mean over the series whose name contains `part` of each
    /// series' p-percentile over the whole run (the per-configuration and
    /// per-shape ledger entries).
    double geomean_percentile_matching(double p, std::string_view part) const;
    std::size_t min_samples() const;
    double total_us() const { return total_us_; }
    std::uint64_t ops() const { return ops_; }
    const std::map<std::string, std::vector<double>>& series() const { return series_; }

    /// Summarise the regions and blocks since the previous call as one
    /// round (run_rounds calls it after each round). A round that added no
    /// region is not summarised.
    void end_round();
    const std::vector<RoundSummary>& rounds() const { return rounds_; }

    /// Bracket a block of back-to-back regions to account its wall and CPU.
    void begin_block();
    void end_block();
    const Usage& block_usage() const { return block_usage_; }
    std::uint64_t regions() const { return regions_; }

  private:
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, std::uint64_t> ops_per_region_;
    double total_us_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t regions_ = 0;
    Clock::time_point block_t0_{};
    Usage block_u0_{};
    double block_wall_s_ = 0;
    Usage block_usage_{};
    std::map<std::string, std::size_t> round_begin_;  // first sample of the open round
    double round_wall0_ = 0;
    Usage round_usage0_{};
    std::vector<RoundSummary> rounds_;
};

/// Run `round(index)` at least `min_rounds` times and then until `seconds`
/// of wall time have passed since the first round began, closing each in
/// `regions`; every round performs the same operations. Returns the number
/// of rounds.
int run_rounds(const Options& opt, int min_rounds, Regions& regions,
               const std::function<void(int)>& round);

/// Record where the run is (static strings). On SIGUSR1 the program writes
/// it to stderr as "HANG workload=... config=... phase=... round=...";
/// run.py sends that signal before it kills a run that overstays.
void where(const char* config, const char* phase, int round);
void install_hang_report(const char* workload);

/// Report the metrics every workload prints: the end-to-end set (untraced)
/// or the shared per-layer set (traced). `setup_s` holds one set-up time
/// per round.
struct Counters;
void report_common(const Options& opt, Report& rep, const Regions& regions,
                   const std::vector<double>& setup_s, const Counters& before,
                   const Counters& after, double rss_after_mib, int max_threads);

/// Process-wide counters the program already exports, read from outside.
struct Counters {
    std::uint64_t stack_maps = 0;
    std::uint64_t cache_allocs = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t audit_rmw = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t steal_hits = 0;
    std::uint64_t idle_yields = 0;
    std::uint64_t parks = 0;
    std::uint64_t park_timeouts = 0;
    std::uint64_t suspends = 0;
    std::uint64_t reactor_wakes = 0;
    std::uint64_t reactor_polls = 0;
    std::uint64_t timer_fires = 0;
};
Counters read_counters();

/// Interpolated p-quantile (µs) of a registry histogram kept in TSC ticks.
double registry_hist_quantile_us(const char* name, double p);
/// Interpolated p-quantile (µs) of the per-stream queue-dwell histograms.
double queue_dwell_quantile_us(double p);

// --- spans ------------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the call.
struct SpanRec {
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
    std::uint32_t id;
    std::uint32_t parent;
    const char* name;  ///< static string
};

/// In-memory span log of a traced run, written out at exit. Disabled (every
/// call a no-op) in untraced runs.
class SpanLog {
  public:
    static SpanLog& instance();
    void enable(std::size_t cap);
    bool enabled() const { return enabled_; }
    std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t now_ns() const;
    void record(const char* name, std::uint32_t id, std::uint32_t parent, std::uint64_t t0,
                std::uint64_t t1);
    /// Durations (µs) of every recorded span called `name`.
    std::vector<double> durations_us(std::string_view name) const;
    std::uint64_t dropped() const { return dropped_; }
    std::size_t size() const;
    bool write_json(const std::string& path) const;

  private:
    bool enabled_ = false;
    std::size_t cap_ = 0;
    std::atomic<std::uint32_t> next_id_{1};
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;  // guards spans_ and dropped_
    std::vector<SpanRec> spans_;
    std::uint64_t dropped_ = 0;
};

/// RAII span: opens at construction, records at end() or destruction.
class Span {
  public:
    explicit Span(const char* name, std::uint32_t parent = 0);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::uint32_t id() const { return id_; }
    void end();

  private:
    const char* name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_;
    std::uint64_t t0_ = 0;
    bool open_ = false;
};

/// Time of two ULTs yielding to each other on one stream, per yield (ns).
double ctx_switch_probe_ns();

// --- workloads ----------------------------------------------------------------

void run_spawn_burst(const Options& opt, Report& rep);
void run_task_grain(const Options& opt, Report& rep);
void run_blocking_handoff(const Options& opt, Report& rep);
void run_echo_rpc(const Options& opt, Report& rep);

}  // namespace perfbench
