/**
 * @file
 * The one pass shape: a single stream drives N analyzer lanes.
 *
 * Every analysis outside runModel's serial reference is a pass: one
 * deterministic instruction stream (an engine re-simulation, a
 * sampled representative, an imported branch trace) feeding one
 * DpgAnalyzer lane per predictor configuration. FusedAnalysisSink
 * multiplexes that stream so it is produced exactly once per pass
 * instead of once per cell. The simulator delivers one instruction
 * at a time; the sink stages them into 256-instruction blocks and
 * dispatches each block to every lane in lane order, so each lane's
 * own onBlock decides whether to run its prefetch pipeline.
 *
 * Lanes are fully independent — separate PredictorBank, value tables,
 * pending-arc arenas, influence scratch — so interleaving blocks
 * between lanes on one thread cannot perturb any lane's output; every
 * cell stays byte-identical to runModel (pinned by tests/test_fused.cc
 * and the golden and cross-path suites).
 *
 * Stream accounting: the sink counts the instructions it delivers
 * outside warm-up, and takeStats(i) throws if lane i analyzed a
 * different number — a lane that saw a stale or torn block fails
 * loudly instead of printing wrong figures.
 */

#ifndef PPM_RUNNER_FUSED_SINK_HH
#define PPM_RUNNER_FUSED_SINK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dpg/dpg_analyzer.hh"
#include "runner/sampled_run.hh"
#include "sim/trace.hh"

namespace ppm {

/** Multiplexing TraceSink owning N independent analyzer lanes. */
class FusedAnalysisSink : public TraceSink
{
  public:
    /**
     * Instructions per staged block: the lookahead window each lane's
     * prefetch pipeline sees.
     */
    static constexpr std::size_t kStageBlock = 256;

    /**
     * The lane builder: one DpgAnalyzer lane per entry of @p configs,
     * in order, each classifying against @p profile (pass 1 of the
     * stream this sink will carry). The runner, serve and CLI layers
     * build their analyzers nowhere else.
     */
    FusedAnalysisSink(const Program &prog, const ExecProfile &profile,
                      const std::vector<DpgConfig> &configs);

    std::size_t laneCount() const { return lanes_.size(); }

    DpgAnalyzer &lane(std::size_t i) { return *lanes_[i].analyzer; }

    /**
     * Wall seconds spent inside lane @p i's onBlock/onRunEnd calls —
     * the lane's own analyze cost, excluding the shared decode/staging
     * work (which the caller attributes once; see StageTiming).
     */
    double laneSeconds(std::size_t i) const
    {
        return lanes_[i].seconds;
    }

    /**
     * Finalize lane @p i and take its statistics. Throws
     * std::runtime_error when the lane analyzed a different number of
     * instructions than the sink delivered.
     */
    DpgStats takeStats(std::size_t i);

    /** Instructions dispatched to every lane outside warm-up. */
    std::uint64_t delivered() const { return delivered_; }

    /**
     * Producers emit one instruction at a time, so the sink stages
     * its own kStageBlock-sized batches before dispatching to the
     * lanes.
     */
    void onInstr(const DynInstr &di) override;

    /** Flush any staged partial block, then end every lane's run. */
    void onRunEnd() override;

    /**
     * Warm-up mode for sampled runs: while on, dispatched blocks go
     * through each lane's warmupBlock() (predictor training only, no
     * statistics) instead of onBlock(). Flip only between producer
     * run() calls, so no staged block straddles the transition.
     * Turning warm-up off marks every lane's warm-up end so gshare
     * accuracy covers the measured stream only.
     */
    void setWarmup(bool on);

  private:
    struct Lane
    {
        std::unique_ptr<DpgAnalyzer> analyzer;
        double seconds = 0.0;
    };

    /** Timed per-lane fan-out of one block. */
    void dispatch(std::span<const DynInstr> block);

    /** Dispatch and clear the staging buffer, if it holds anything. */
    void flushStaged();

    std::vector<Lane> lanes_;

    /** Staging buffer between the producer and the lanes. */
    std::vector<DynInstr> staged_;

    /** Instructions dispatched outside warm-up (stream accounting). */
    std::uint64_t delivered_ = 0;

    /** Warm-up mode flag (see setWarmup). */
    bool warmup_ = false;
};

/**
 * Run one stream through fresh lanes: a sink with one lane per
 * config over @p profile, fed by @p produce (which must end the
 * run). Returns every lane's statistics and seconds in config order,
 * with the stream-production residual (pass wall minus the lane
 * seconds) in timing.dispatchSec. A full pass is one call, with the
 * pass-1 fields of timing (simulateSec, dynInstrs) left to the
 * caller's profile; a sampled pass is one call per representative.
 */
SampledResult
analyzeStream(const Program &prog, const ExecProfile &profile,
              const std::vector<DpgConfig> &configs,
              const std::function<void(FusedAnalysisSink &)> &produce);

} // namespace ppm

#endif // PPM_RUNNER_FUSED_SINK_HH
