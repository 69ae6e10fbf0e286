/**
 * @file
 * Shared experiment-driver plumbing for the bench/ binaries.
 *
 * Each binary regenerates one of the paper's tables or figures. All
 * cells route through the shared ExperimentEngine: the (workload,
 * predictor) matrix fans out across PPM_THREADS workers, each
 * workload is assembled and profiled once per (input, budget), and
 * the predictor configs sharing that key run as lanes of one
 * re-simulation. Every binary prints a stage-timing summary to
 * stderr and, when PPM_BENCH_JSON=<path> is set, writes the
 * machine-readable "ppm-bench-timing-v3" report at exit.
 *
 * PPM_QUICK=1 in the environment runs shortened workloads for fast
 * iteration; the default reproduces the full configuration.
 */

#ifndef PPM_BENCH_BENCH_COMMON_HH
#define PPM_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "obs/obs.hh"
#include "report/figure_report.hh"
#include "runner/engine.hh"
#include "runner/stage_report.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

namespace ppm::bench {

/** Dynamic-instruction budget per run. */
inline std::uint64_t
instrBudget()
{
    return envFlag("PPM_QUICK", false) ? 200'000 : 4'000'000;
}

/** The engine every bench binary shares (PPM_BENCH_JSON at exit). */
inline ExperimentEngine &
engine()
{
    return ExperimentEngine::shared();
}

/**
 * Base config for bench cells: the PPM_QUICK-aware budget plus
 * @p kind. Callers needing other knobs (trackInfluence, predictor
 * table sizes, ...) mutate the returned struct — never add
 * positional parameters here; they silently reorder call sites.
 */
inline ExperimentConfig
benchConfig(PredictorKind kind = PredictorKind::Context)
{
    ExperimentConfig config;
    config.maxInstrs = instrBudget();
    config.dpg.kind = kind;
    return config;
}

/** The paper's predictor sweep (L, S, C) as a vector. */
inline std::vector<PredictorKind>
allKinds()
{
    return {std::begin(kAllPredictorKinds),
            std::end(kAllPredictorKinds)};
}

inline RunResult
toRunResult(ExperimentOutcome &&outcome)
{
    RunResult result;
    result.stats = std::move(outcome.stats);
    result.isFloat = outcome.isFloat;
    return result;
}

/** Run one (workload, config) cell through the engine. */
inline RunResult
runOne(const Workload &w, const ExperimentConfig &config)
{
    auto outcomes = engine().run({engine().makeJob(w, config)});
    return toRunResult(std::move(outcomes.front()));
}

/**
 * Run @p workloads × @p kinds (paper presentation order: per
 * benchmark, L then S then C) with @p base supplying every knob
 * except the predictor kind.
 */
inline std::vector<RunResult>
runMatrix(const std::vector<Workload> &workloads,
          const std::vector<PredictorKind> &kinds,
          const ExperimentConfig &base)
{
    std::cerr << "  running " << workloads.size() << " workload(s) x "
              << kinds.size() << " predictor(s) on "
              << engine().threads() << " thread(s) ..." << std::endl;
    std::vector<RunResult> results;
    {
        obs::Span span("bench.matrix", "bench");
        for (auto &outcome : engine().run(
                 engine().workloadMatrix(workloads, kinds, base)))
            results.push_back(toRunResult(std::move(outcome)));
    }
    if (obs::Counter *c = obs::counter("bench.matrix_cells"))
        c->add(results.size());
    printStageSummary(std::cerr, engine());
    return results;
}

/** Run every workload under every predictor. */
inline std::vector<RunResult>
runAllWorkloadsAllPredictors(const ExperimentConfig &base =
                                 benchConfig())
{
    return runMatrix(allWorkloads(), allKinds(), base);
}

/** Run only the integer workloads under every predictor. */
inline std::vector<RunResult>
runIntegerWorkloadsAllPredictors(const ExperimentConfig &base =
                                     benchConfig())
{
    return runMatrix(integerWorkloads(), allKinds(), base);
}

} // namespace ppm::bench

#endif // PPM_BENCH_BENCH_COMMON_HH
