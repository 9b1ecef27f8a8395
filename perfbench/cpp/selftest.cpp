// selftest — the benchmark's own arithmetic and output checks against
// hand-computed cases. Run by `python3 perfbench/run.py --selftest`; exits
// non-zero and names each failing case.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "FAILED: %s\n", what);
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

bool contains(const std::string& s, const char* part) { return s.find(part) != std::string::npos; }

void test_percentile() {
    using perfbench::percentile;
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) {
        hundred.push_back(i);  // unsorted on purpose
    }
    expect(percentile(hundred, 0.9) == 90, "p90 of 1..100 is 90 (10 samples beyond it)");
    expect(percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
    expect(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
    expect(percentile(hundred, 1.0) == 100, "p100 is the maximum");
    expect(percentile({3, 1, 2}, 0.5) == 2, "median of an odd count is the middle");
    expect(percentile({4, 1, 3, 2}, 0.5) == 2, "median of an even count is the lower middle");
    expect(percentile({7}, 0.9) == 7, "one sample is every percentile");
    expect(percentile({}, 0.5) == 0, "empty input gives 0");
    std::vector<double> ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    expect(percentile(ten, 0.9) == 9, "p90 of 1..10 is 9");
}

void test_geomean_and_ratio() {
    using perfbench::geomean;
    using perfbench::ratio;
    expect(near(geomean({1, 4}), 2), "geomean(1,4) = 2");
    expect(near(geomean({2, 8, 4}), 4), "geomean(2,8,4) = 4");
    expect(near(geomean({5}), 5), "geomean of one value is the value");
    expect(geomean({}) == 0, "geomean of nothing is 0");
    expect(geomean({0, 5}) == 0, "a zero time makes the geomean 0");
    expect(geomean({-1, 5}) == 0, "a negative value makes the geomean 0");
    expect(ratio(1, 0) == 0, "ratio with a zero denominator is 0");
    expect(ratio(0, 0) == 0, "0/0 is 0");
    expect(near(ratio(3, 4), 0.75), "3/4 = 0.75");
    expect(near(perfbench::efficiency(512, 1.0, 4, 256), 0.5), "512 x 1us on 4 workers in 256us");
    expect(perfbench::efficiency(512, 1.0, 4, 0) == 0, "efficiency of an unmeasured region is 0");
}

void test_hist_quantile() {
    using perfbench::log2_hist_quantile;
    std::uint64_t b[65] = {};
    expect(log2_hist_quantile(b, 65, 0.5) == 0, "empty histogram gives 0");
    b[3] = 10;  // ten values in [4, 8)
    expect(near(log2_hist_quantile(b, 65, 0.5), 6), "p50 halfway through [4,8) is 6");
    expect(near(log2_hist_quantile(b, 65, 1.0), 8), "p100 is the bucket's upper edge");
    std::uint64_t z[65] = {};
    z[0] = 5;  // exact zeros
    z[1] = 5;  // ones
    expect(log2_hist_quantile(z, 65, 0.5) == 0, "p50 in the zero bucket is 0");
    expect(near(log2_hist_quantile(z, 65, 0.75), 1.5), "p75 halfway through [1,2) is 1.5");
}

void test_metg() {
    using perfbench::metg;
    using perfbench::MetgKind;
    const auto crossed = metg({{1, 0.2}, {10, 0.8}});
    expect(crossed.kind == MetgKind::kCrossed, "crossing between two rungs is kCrossed");
    expect(near(crossed.us, std::sqrt(10.0)), "halfway in E is the log-midpoint sqrt(10)");
    const auto later = metg({{1, 0.1}, {4, 0.3}, {16, 0.7}});
    expect(near(later.us, 8), "crossing between 4 and 16 at f=0.5 is 8");
    const auto exact = metg({{1, 0.2}, {4, 0.5}});
    expect(exact.kind == MetgKind::kCrossed && near(exact.us, 4), "E = 0.5 exactly at a rung");
    const auto finest = metg({{2, 0.6}, {8, 0.9}});
    expect(finest.kind == MetgKind::kAtFinest && near(finest.us, 2),
           "above 0.5 at the finest rung reports that rung, flagged");
    const auto never = metg({{1, 0.1}, {4, 0.3}});
    expect(never.kind == MetgKind::kNever && near(never.us, 4),
           "never reaching 0.5 reports the coarsest rung, flagged");
    expect(metg({}).kind == MetgKind::kNever, "an empty ladder never crosses");
    // A dip after the first crossing does not move METG: the first crossing counts.
    const auto dip = metg({{1, 0.3}, {2, 0.7}, {4, 0.4}, {8, 0.9}});
    expect(dip.us < 2 && dip.us > 1, "the first crossing counts");
}

void test_checks() {
    using namespace perfbench;
    std::vector<std::uint64_t> want;
    for (std::uint64_t i = 0; i < 16; ++i) {
        want.push_back(hash_chain(7, i, 3));
    }
    expect(hash_chain(7, 3, 3) == want[3], "hash_chain is deterministic");
    expect(hash_chain(7, 3, 3) != hash_chain(7, 3, 4), "hash_chain depends on the grain");
    expect(hash_chain(8, 3, 3) != hash_chain(7, 3, 3), "hash_chain depends on the seed");
    for (std::uint64_t v : want) {
        expect(v != 0, "hash_chain never returns the unwritten marker 0");
    }

    auto out = want;
    expect(check_outputs(out, want).empty(), "correct outputs pass");
    out[5] = 0;
    expect(contains(check_outputs(out, want), "element 5 never written"), "a skipped element fails");
    out = want;
    out[9] += want[9];
    expect(contains(check_outputs(out, want), "element 9 written 2 times"),
           "a duplicated element fails");
    out = want;
    out[2] ^= 1;
    expect(contains(check_outputs(out, want), "wrong value"), "a wrong value fails");
    out.pop_back();
    expect(!check_outputs(out, want).empty(), "a missing tail fails");

    expect(check_burst(16, want, want).empty(), "a complete burst passes");
    expect(contains(check_burst(15, want, want), "15 units completed"), "a lost unit fails");
    expect(contains(check_burst(17, want, want), "17 units completed"), "a unit run twice fails");

    expect(check_ring(5 + 8 * 16, 5, 8, 16).empty(), "ring token start + ring*laps passes");
    expect(!check_ring(5 + 8 * 16 - 1, 5, 8, 16).empty(), "a skipped hop fails");
    expect(!check_ring(5 + 8 * 16 + 1, 5, 8, 16).empty(), "a doubled hop fails");
    expect(check_total(256, 256).empty() && !check_total(255, 256).empty(), "counter totals");

    const std::uint64_t n = 32;
    std::vector<std::uint32_t> seen(n + 1, 1);
    seen[0] = 0;
    expect(check_consumed(seen, n * (n + 1) / 2, n).empty(), "each value once passes");
    seen[7] = 0;
    expect(contains(check_consumed(seen, n * (n + 1) / 2 - 7, n), "value 7 lost"),
           "a lost value fails");
    seen[7] = 2;
    expect(contains(check_consumed(seen, n * (n + 1) / 2 + 7, n), "value 7 consumed 2 times"),
           "a duplicated value fails");
    seen[7] = 1;
    expect(contains(check_consumed(seen, n * (n + 1) / 2 + 1, n), "sum"), "a wrong sum fails");

    const std::uint8_t req[5] = {1, 2, 3, 4, 5};
    std::uint8_t rep[5] = {1, 2, 3, 4, 5};
    expect(check_echo(rep, 5, req, 5).empty(), "an exact echo passes");
    rep[3] = 9;
    expect(contains(check_echo(rep, 5, req, 5), "byte 3"), "a changed byte fails");
    expect(!check_echo(rep, 4, req, 5).empty(), "a short reply fails");
}

}  // namespace

int main() {
    test_percentile();
    test_geomean_and_ratio();
    test_hist_quantile();
    test_metg();
    test_checks();
    if (g_failures != 0) {
        std::fprintf(stderr, "selftest: %d case(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all cases passed\n");
    return 0;
}
