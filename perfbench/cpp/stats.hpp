// stats.hpp — the benchmark's own arithmetic: percentiles, geometric
// means, guarded ratios, log2-histogram quantiles and METG(50%).
//
// Header-only and free of runtime dependencies so that selftest.cpp can
// check every rule against hand-computed cases.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `p` (0 < p <= 1) of all samples is at or below it. With n samples the
/// result is the ceil(p*n)-th smallest, so p = 0.9 over 100 samples leaves
/// exactly 10 samples above it. Empty input gives 0.
inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
    const double rank = std::ceil(p * static_cast<double>(v.size()) - 1e-9);
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= v.size()) {
        idx = v.size() - 1;
    }
    return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Geometric mean of strictly positive values; 0 when the input is empty
/// or holds a value <= 0 (a zero time means nothing was measured).
inline double geomean(const std::vector<double>& v) {
    if (v.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0)) {
            return 0.0;
        }
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// num / den, or 0 when the denominator is 0 (a ratio over no events).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// p-quantile of a log2-bucketed histogram (bucket 0 holds exact zeros,
/// bucket i >= 1 holds [2^(i-1), 2^i)), interpolated linearly inside the
/// bucket that holds it so the estimate moves with the data instead of
/// snapping to a power of two. 0 when empty.
inline double log2_hist_quantile(const std::uint64_t* buckets, std::size_t n_buckets,
                                 double p) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n_buckets; ++i) {
        total += buckets[i];
    }
    if (total == 0) {
        return 0.0;
    }
    const double target = p * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < n_buckets; ++i) {
        if (buckets[i] == 0) {
            continue;
        }
        const double in_bucket = static_cast<double>(buckets[i]);
        if (cum + in_bucket >= target) {
            if (i == 0) {
                return 0.0;
            }
            const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
            const double frac = (target - cum) / in_bucket;
            return lo + frac * lo;  // bucket width equals its lower bound
        }
        cum += in_bucket;
    }
    return std::ldexp(1.0, static_cast<int>(n_buckets) - 1);
}

/// Parallel efficiency of one grain: E = N * t_serial / (W * T_region).
inline double efficiency(double n_tasks, double t_serial_us, double workers,
                         double region_us) {
    return ratio(n_tasks * t_serial_us, workers * region_us);
}

/// One rung of the grain ladder: the serial per-task time at that grain
/// and the efficiency measured there.
struct LadderPoint {
    double t_serial_us;
    double efficiency;
};

enum class MetgKind {
    kCrossed,   ///< E crosses the target between two rungs (interpolated)
    kAtFinest,  ///< E already meets the target at the finest rung
    kNever,     ///< E never meets the target on the ladder
};

struct Metg {
    double us;
    MetgKind kind;
};

/// METG(target): the serial per-task time at which efficiency first
/// reaches `target`, scanning the ladder from fine to coarse (ascending
/// t_serial_us), interpolated log-linearly between the two rungs that
/// bracket the crossing. At the finest rung the result is that rung's
/// time (an upper bound); when no rung reaches the target it is the
/// coarsest rung's time (a lower bound). Both cases are flagged.
inline Metg metg(const std::vector<LadderPoint>& ladder, double target = 0.5) {
    if (ladder.empty()) {
        return {0.0, MetgKind::kNever};
    }
    for (std::size_t k = 0; k < ladder.size(); ++k) {
        if (ladder[k].efficiency < target) {
            continue;
        }
        if (k == 0) {
            return {ladder[0].t_serial_us, MetgKind::kAtFinest};
        }
        const LadderPoint& a = ladder[k - 1];
        const LadderPoint& b = ladder[k];
        const double f = (target - a.efficiency) / (b.efficiency - a.efficiency);
        const double log_t =
            std::log(a.t_serial_us) + f * (std::log(b.t_serial_us) - std::log(a.t_serial_us));
        return {std::exp(log_t), MetgKind::kCrossed};
    }
    return {ladder.back().t_serial_us, MetgKind::kNever};
}

}  // namespace perfbench
