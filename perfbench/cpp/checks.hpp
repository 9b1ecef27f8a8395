// checks.hpp — output checks made apart from the runtime under test, and
// the seeded kernels whose results they compare against.
//
// Every check returns an empty string when the output is right and a
// one-line reason otherwise. None of them compares against a stored copy
// of earlier output: the expected values are recomputed from the seed, or
// follow from a closed form the method must satisfy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64's output function applied to (x + golden gamma).
inline std::uint64_t mix64(std::uint64_t x) {
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The task_grain kernel: a dependent chain of `g` splitmix64 steps seeded
/// by the workload seed and element index `i`. Dependent, so the CPU cannot
/// overlap the steps and the time per task scales with g.
inline std::uint64_t hash_chain(std::uint64_t seed, std::uint64_t i, unsigned g) {
    std::uint64_t h = mix64(seed ^ (i * 0xd1342543de82ef95ULL));
    for (unsigned k = 0; k < g; ++k) {
        h = mix64(h);
    }
    return h | 1;  // never 0: 0 marks an element nothing wrote
}

namespace detail {
inline std::string fmt(const char* f, unsigned long long a, unsigned long long b = 0,
                       unsigned long long c = 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}
}  // namespace detail

/// Element-wise check of accumulate-once outputs: each element starts at 0
/// and its unit adds its value once, so a skipped element reads 0 and an
/// element written k times reads k * expected (mod 2^64).
inline std::string check_outputs(const std::vector<std::uint64_t>& out,
                                 const std::vector<std::uint64_t>& expected) {
    if (out.size() != expected.size()) {
        return detail::fmt("%llu outputs for %llu inputs", out.size(), expected.size());
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] == expected[i]) {
            continue;
        }
        if (out[i] == 0) {
            return detail::fmt("element %llu never written", i);
        }
        for (unsigned long long k = 2; k <= 64; ++k) {
            if (out[i] == expected[i] * k) {
                return detail::fmt("element %llu written %llu times", i, k);
            }
        }
        return detail::fmt("element %llu holds a wrong value", i);
    }
    return {};
}

/// spawn_burst: every created unit completed exactly once (one ticket per
/// run) and every slot holds its unit's seeded value.
inline std::string check_burst(std::uint64_t tickets, const std::vector<std::uint64_t>& slots,
                               const std::vector<std::uint64_t>& expected) {
    if (tickets != expected.size()) {
        return detail::fmt("%llu units completed, %llu created", tickets, expected.size());
    }
    return check_outputs(slots, expected);
}

/// blocking_handoff ring: the token is incremented once per hop, so after
/// `laps` laps of `ring` hops it is start + ring * laps.
inline std::string check_ring(std::uint64_t token, std::uint64_t start, std::uint64_t ring,
                              std::uint64_t laps) {
    const std::uint64_t want = start + ring * laps;
    if (token != want) {
        return detail::fmt("final token %llu, want %llu", token, want);
    }
    return {};
}

/// A counter against its closed-form total.
inline std::string check_total(std::uint64_t got, std::uint64_t want) {
    if (got != want) {
        return detail::fmt("counter %llu, want %llu", got, want);
    }
    return {};
}

/// blocking_handoff producer/consumer: values 1..n were each consumed
/// exactly once (`seen[v]` counts receipts of v) and the consumers' sum is
/// n(n+1)/2.
inline std::string check_consumed(const std::vector<std::uint32_t>& seen, std::uint64_t sum,
                                  std::uint64_t n) {
    if (seen.size() != n + 1) {
        return detail::fmt("tally sized %llu for %llu values", seen.size(), n);
    }
    for (std::uint64_t v = 1; v <= n; ++v) {
        if (seen[v] == 0) {
            return detail::fmt("value %llu lost", v);
        }
        if (seen[v] > 1) {
            return detail::fmt("value %llu consumed %llu times", v, seen[v]);
        }
    }
    if (sum != n * (n + 1) / 2) {
        return detail::fmt("sum %llu, want %llu", sum, n * (n + 1) / 2);
    }
    return {};
}

/// echo_rpc: the reply equals the request byte for byte.
inline std::string check_echo(const std::uint8_t* reply, std::size_t reply_len,
                              const std::uint8_t* request, std::size_t request_len) {
    if (reply_len != request_len) {
        return detail::fmt("reply of %llu bytes for a %llu-byte request", reply_len, request_len);
    }
    for (std::size_t i = 0; i < request_len; ++i) {
        if (reply[i] != request[i]) {
            return detail::fmt("reply byte %llu differs", i);
        }
    }
    return {};
}

}  // namespace perfbench
