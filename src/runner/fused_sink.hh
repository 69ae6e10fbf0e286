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
 * With dispatchThreads > 1 (the engine passes PPM_INTRA_THREADS) and
 * more than one lane, the per-block fan-out runs on a small worker
 * pool instead: workers claim lanes from an atomic cursor and the
 * dispatching thread waits for the block's lane count to drain before
 * the next block is produced. Lane independence makes the assignment
 * of lanes to workers unobservable, so outputs stay byte-identical;
 * per-lane laneSeconds attribution is preserved because exactly one
 * worker runs a given lane for a given block.
 *
 * Stream accounting: the sink counts the instructions it delivers
 * outside warm-up, and takeStats(i) throws if lane i analyzed a
 * different number — a lane that saw a stale or torn block fails
 * loudly instead of printing wrong figures.
 */

#ifndef PPM_RUNNER_FUSED_SINK_HH
#define PPM_RUNNER_FUSED_SINK_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
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
     * prefetch pipeline sees (same as IntraRunPipeline::kStageBlock).
     */
    static constexpr std::size_t kStageBlock = 256;

    /**
     * Named points in a dispatch worker's loop, for the test-only
     * sync hook (setSyncHookForTesting). Idle is reported with the
     * sink's lock held, the other two with it released.
     */
    enum class SyncPoint
    {
        Idle,  ///< About to wait for the next block.
        Woken, ///< Woken up, before re-taking the lock.
        Claim, ///< Counted into a block, before claiming lanes.
    };

    /**
     * @p dispatchThreads > 1 enables the parallel lane fan-out (the
     * pool is sized min(dispatchThreads, laneCount) and spawned
     * lazily, on the first multi-lane dispatch).
     */
    explicit FusedAnalysisSink(unsigned dispatchThreads = 1);
    ~FusedAnalysisSink() override;

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
     * run() calls — dispatch is synchronous, so no block is in flight
     * across the transition. Turning warm-up off marks every lane's
     * warm-up end so gshare accuracy covers the measured stream only.
     */
    void setWarmup(bool on);

    /**
     * Test seam: call @p hook at each SyncPoint of every dispatch
     * worker, so a test can force a schedule (for example, park a
     * woken worker until its block's barrier has passed). Install
     * before the first block; the hook must not call into the sink
     * from the Idle point, where the sink's lock is held.
     */
    void setSyncHookForTesting(std::function<void(SyncPoint)> hook)
    {
        syncHook_ = std::move(hook);
    }

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

    /** Worker-pool fan-out (dispatchThreads_ > 1, 2+ lanes). */
    void dispatchParallel(std::span<const DynInstr> block);

    /** Spawn the lane-dispatch pool once. */
    void ensureWorkers();

    void workerLoop();

    std::vector<Lane> lanes_;

    /** Staging buffer between the simulator and the lanes. */
    std::vector<DynInstr> staged_;

    /** Instructions dispatched outside warm-up (stream accounting). */
    std::uint64_t delivered_ = 0;

    // --- parallel lane dispatch ------------------------------------
    unsigned dispatchThreads_ = 1;
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable workCv_; ///< Workers: new block or stop.
    std::condition_variable doneCv_; ///< Dispatcher: block drained.
    std::span<const DynInstr> current_{};
    std::uint64_t generation_ = 0; ///< Bumped per dispatched block.
    std::size_t lanesDone_ = 0;    ///< Lanes finished this block.
    std::size_t busy_ = 0;         ///< Workers counted into this block.
    std::atomic<std::size_t> nextLane_{0}; ///< Work-stealing cursor.
    bool stop_ = false;

    /**
     * True from a block's publication until its barrier passes.
     * Workers join a block only while it is open, so a worker woken
     * for block g that reaches the lock after g's barrier cannot
     * count itself into block g + 1 with g's span.
     */
    bool open_ = false;

    /** Warm-up mode flag; workers read it under m_ per generation. */
    bool warmup_ = false;

    std::function<void(SyncPoint)> syncHook_;
};

} // namespace ppm

#endif // PPM_RUNNER_FUSED_SINK_HH
