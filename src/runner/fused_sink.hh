/**
 * @file
 * Fused sweep sink: one stream pass drives every predictor cell.
 *
 * A figure sweep is a matrix of (workload, predictor) cells whose
 * rows share the identical deterministic instruction stream — only
 * the predictor configuration differs. FusedAnalysisSink multiplexes
 * that stream across N independent DpgAnalyzer lanes so the stream is
 * simulated exactly once per row instead of once per cell. The
 * simulator delivers one instruction at a time; the sink stages them
 * into 256-instruction blocks and dispatches each block to every lane
 * in submission order, so each lane's own onBlock decides whether to
 * run its prefetch pipeline.
 *
 * Lanes are fully independent — separate PredictorBank, value tables,
 * pending-arc arenas, influence scratch — so interleaving blocks
 * between lanes on one thread cannot perturb any lane's output; every
 * cell stays byte-identical to the sequential path (pinned by
 * tests/test_fused.cc and the golden and cross-path suites).
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
#include <memory>
#include <vector>

#include "dpg/dpg_analyzer.hh"
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

    FusedAnalysisSink();

    /** Append a lane; returns its index. Lanes cannot be removed. */
    std::size_t addLane(std::unique_ptr<DpgAnalyzer> analyzer);

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
     * Machine::run emits one instruction at a time, so the sink
     * stages its own kStageBlock-sized batches before dispatching to
     * the lanes.
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

    /** Staging buffer between the simulator and the lanes. */
    std::vector<DynInstr> staged_;

    /** Instructions dispatched outside warm-up (stream accounting). */
    std::uint64_t delivered_ = 0;

    /** Warm-up mode flag (see setWarmup). */
    bool warmup_ = false;
};

} // namespace ppm

#endif // PPM_RUNNER_FUSED_SINK_HH
