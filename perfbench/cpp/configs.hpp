// configs.hpp — the runtime configurations spawn_burst and task_grain run
// through patterns::make_runner, in their fixed order (the paper's legend
// without Pthreads). The order is part of the benchmark: a configuration
// is never moved to change what ran before it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "patterns/patterns.hpp"

namespace perfbench {

struct RunnerConfig {
    const char* slug;
    lwt::patterns::Variant variant;
    /// True when the calling thread is one of the runtime's workers (abt's
    /// primary stream, mth worker 0, cvt PE 0, momp thread 0). qth and gol
    /// run every worker on a thread of their own, so they get one worker
    /// less to keep the process within the CPU budget.
    bool main_is_worker;
};

inline const std::vector<RunnerConfig>& runner_configs() {
    using V = lwt::patterns::Variant;
    static const std::vector<RunnerConfig> kConfigs{
        {"abt.ult_private", V::kAbtUltPrivate, true},
        {"abt.ult_shared", V::kAbtUltShared, true},
        {"abt.tasklet_private", V::kAbtTaskletPrivate, true},
        {"abt.tasklet_shared", V::kAbtTaskletShared, true},
        {"qth.shep_per_cpu", V::kQthPerCpu, false},
        {"qth.one_shep", V::kQthSingleShepherd, false},
        {"mth.work_first", V::kMthWorkFirst, true},
        {"mth.help_first", V::kMthHelpFirst, true},
        {"cvt.messages", V::kCvtMessages, true},
        {"gol", V::kGolShared, false},
        {"momp.gcc", V::kOmpGcc, true},
        {"momp.icc", V::kOmpIcc, true},
    };
    return kConfigs;
}

/// task_grain's configurations: runner_configs() less the three abt
/// configurations that now and then hang on the task shapes (README, Known
/// faults). A hang never returns, so it cannot be counted as a failed
/// operation; the order of the others is unchanged.
inline const std::vector<RunnerConfig>& grain_configs() {
    static const std::vector<RunnerConfig> kConfigs = [] {
        using V = lwt::patterns::Variant;
        std::vector<RunnerConfig> kept;
        for (const RunnerConfig& cfg : runner_configs()) {
            if (cfg.variant != V::kAbtUltPrivate && cfg.variant != V::kAbtUltShared &&
                cfg.variant != V::kAbtTaskletShared) {
                kept.push_back(cfg);
            }
        }
        return kept;
    }();
    return kConfigs;
}

/// Workers for a configuration: the process holds at most cpu_budget() OS
/// threads while the runtime runs, the calling thread included.
inline std::size_t workers_for(bool main_is_worker) {
    const std::size_t n = cpu_budget();
    return main_is_worker ? n : std::max<std::size_t>(1, n - 1);
}

}  // namespace perfbench
