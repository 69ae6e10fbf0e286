/**
 * @file
 * Phase-sampled analysis scheduler (DESIGN.md Sec. 13).
 *
 * Full DPG analysis costs 1-2 orders of magnitude more per
 * instruction than bare functional simulation, so figure-quality
 * statistics at 100M-1B instruction budgets are unaffordable by
 * direct analysis. This scheduler buys them back SimPoint-style:
 *
 *   Pass A (profile): simulate the FULL budget once with three cheap
 *   sinks — the pass-1 ExecProfile (write-once classification is a
 *   whole-run property), an IntervalProfiler collecting one hashed-pc
 *   signature per fixed-size interval, and dirty-page checkpoint
 *   captures at every interval boundary (sim/checkpoint.hh).
 *
 *   Plan: k-means-cluster the interval signatures into at most
 *   maxPhases phases and pick one weighted representative interval
 *   per phase (sample/phase_cluster.hh).
 *
 *   Pass B (measure): visit representatives in ascending order on a
 *   second machine. Fast-forward by applying checkpoint page deltas
 *   (never re-simulating past intervals except the sub-interval gap
 *   to the warm-up start), train the analyzers' predictors on a
 *   warm-up prefix with statistics off, then analyze the
 *   representative interval itself through a fresh FusedAnalysisSink
 *   (one lane per predictor config).
 *   Each lane's stats are scaled by the phase weight and merged, so
 *   the merged counters estimate the full run at the cost of
 *   analyzing only the representatives.
 *
 * Determinism: the simulator is deterministic, the checkpoint chain
 * is a pure function of (program, input, budget, interval), and the
 * clustering uses a fixed-seed deterministic k-means — so a sampled
 * run's output is bit-stable across repeats and engine thread counts
 * (lanes are independent; see fused_sink.hh).
 *
 * Enabled with PPM_SAMPLE=<interval>,<warmup>,<maxphases>; off by
 * default (unset/empty), in which case the engine's passes analyze
 * the full stream and output is byte-identical to an unsampled build.
 */

#ifndef PPM_RUNNER_SAMPLED_RUN_HH
#define PPM_RUNNER_SAMPLED_RUN_HH

#include <cstdint>
#include <vector>

#include "asmr/program.hh"
#include "dpg/dpg_analyzer.hh"

namespace ppm {

/** Sampling knobs (PPM_SAMPLE=<interval>,<warmup>,<maxphases>). */
struct SampleOptions
{
    /** Interval length in dynamic instructions; 0 = sampling off. */
    std::uint64_t intervalLen = 0;

    /**
     * Predictor warm-up prefix per representative, in instructions.
     * Clamped to what precedes the representative (and to what the
     * ascending forward-restore scheduler has not already executed).
     */
    std::uint64_t warmupLen = 0;

    /** Maximum phases (k-means cluster count) per workload. */
    unsigned maxPhases = 0;

    bool enabled() const { return intervalLen > 0; }

    /**
     * Parse PPM_SAMPLE. Unset/empty returns a disabled options value;
     * anything else must be three comma-separated unsigned integers
     * (parseUint: no sign, space or overflow)
     * <interval>,<warmup>,<maxphases> with interval and maxphases
     * >= 1, or EnvError is thrown naming the variable.
     */
    static SampleOptions fromEnv();
};

/** Wall/size accounting of one sampled pass (feeds StageTiming). */
struct SampledPassTiming
{
    /** Pass-A full-budget simulation (excluding checkpoint capture). */
    double simulateSec = 0.0;

    /** Checkpoint captures (dirty-page copies) during pass A. */
    double checkpointSec = 0.0;

    /** Pass-B page-delta restores plus gap simulation to warm-up
     *  starts. */
    double fastForwardSec = 0.0;

    /**
     * Stream production (pass wall minus the per-lane analyze
     * seconds): for a sampled pass, pass B's warm-up + measured
     * intervals; for a full pass, the whole re-simulation.
     */
    double dispatchSec = 0.0;

    /** Full profiled stream length. */
    std::uint64_t dynInstrs = 0;

    /** Instructions simulated through the sink in pass B
     *  (warm-up + measured). */
    std::uint64_t sampledInstrs = 0;

    /** Phases the clusterer found (excluding a trailing partial). */
    unsigned phases = 0;

    /** Checkpoint page-image bytes held during the run. */
    std::uint64_t checkpointBytes = 0;
};

/**
 * Everything one pass produces: a sampled pass here, a full pass
 * through analyzeStream (runner/fused_sink.hh).
 */
struct SampledResult
{
    /** Phase-weighted merged statistics, one per input config. */
    std::vector<DpgStats> stats;

    /** Per-config analyze seconds (sum of that lane across reps). */
    std::vector<double> laneSeconds;

    SampledPassTiming timing;
};

/**
 * Run the sampled two-pass analysis of @p prog fed @p input at
 * budget @p maxInstrs for every predictor config in @p configs
 * (lanes of one pass; configs must not request verify — the engine
 * runs verified groups as full passes). @p opts must be enabled().
 * Lanes run in order on the calling thread. Pass A counts as one
 * runner.simulations, under a "simulate" span.
 */
SampledResult
runSampledAnalysis(const Program &prog,
                   const std::vector<Value> &input,
                   std::uint64_t maxInstrs,
                   const std::vector<DpgConfig> &configs,
                   const SampleOptions &opts,
                   unsigned /* unused; perfbench/ still passes it */ = 1);

} // namespace ppm

#endif // PPM_RUNNER_SAMPLED_RUN_HH
