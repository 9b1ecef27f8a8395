// lwt_perfbench — the repo benchmark's program. One invocation runs one
// workload for about --seconds and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. The line
// before it ("LEDGER {...}") carries the figures only this workload
// reaches. perfbench/run.py builds this program and is the entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/observability.hpp"

namespace {

using perfbench::Metric;

void print_metrics_object(std::FILE* f, const std::vector<Metric>& ms) {
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                     ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    }
    std::fprintf(f, "}");
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload spawn_burst|task_grain|blocking_handoff|echo_rpc "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, nullptr);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "0") != 0;
        } else if (key == "--out") {
            opt.out_dir = val;
        } else {
            return usage(argv[0]);
        }
    }
    void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
    if (opt.workload == "spawn_burst") {
        run = perfbench::run_spawn_burst;
    } else if (opt.workload == "task_grain") {
        run = perfbench::run_task_grain;
    } else if (opt.workload == "blocking_handoff") {
        run = perfbench::run_blocking_handoff;
    } else if (opt.workload == "echo_rpc") {
        run = perfbench::run_echo_rpc;
    }
    if (run == nullptr || opt.seconds <= 0) {
        return usage(argv[0]);
    }

    // A traced run arms the program's own counters before any runtime
    // boots, and holds one observability session for the whole run so the
    // registry is not flushed (and zeroed) between configurations.
    std::unique_ptr<lwt::core::ObservabilitySession> session;
    if (opt.trace) {
        ::setenv("LWT_METRICS", "1", 1);
        ::setenv("LWT_CREATE_AUDIT", "1", 1);
        if (opt.workload == "echo_rpc") {
            ::setenv("LWT_INTROSPECT", "127.0.0.1:0", 1);
        }
        session = std::make_unique<lwt::core::ObservabilitySession>();
        perfbench::SpanLog::instance().enable(1u << 18);
    }

    perfbench::install_hang_report(opt.workload.c_str());
    perfbench::Report rep;
    run(opt, rep);

    if (opt.trace) {
        auto& spans = perfbench::SpanLog::instance();
        rep.ledger("trace.spans", static_cast<double>(spans.size()), "count");
        rep.ledger("trace.spans_dropped", static_cast<double>(spans.dropped()), "count");
        const std::string path = opt.out_dir + "/spans_" + opt.workload + ".json";
        if (!spans.write_json(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        }
    }

    std::printf("LEDGER {\"workload\": \"%s\", \"trace\": %d, \"entries\": ", opt.workload.c_str(),
                opt.trace ? 1 : 0);
    print_metrics_object(stdout, rep.ledger_entries());
    std::printf("}\n");
    const bool correct = rep.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
                correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    print_metrics_object(stdout, rep.metrics());
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
