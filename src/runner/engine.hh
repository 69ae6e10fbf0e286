/**
 * @file
 * The request-oriented parallel experiment engine.
 *
 * An experiment cell is one (program, input, ExperimentConfig)
 * triple — e.g. one of the 12 workloads × 3 predictors of a figure
 * binary, or one request a serve daemon admitted. The engine owns a
 * persistent pool of worker threads fed from a pending queue:
 *
 *   submit(ExperimentJob)      -> RequestHandle   admit one cell
 *   submitAll(jobs)            -> handles         admit atomically
 *   RequestHandle::wait()      -> ExperimentOutcome (blocks)
 *   RequestHandle::cancel()                        unqueue if pending
 *
 * run(jobs) remains as a submit-all-then-wait shim with the original
 * batch semantics (outcomes in submission order, first submission-
 * order exception rethrown after the batch drains), so every existing
 * caller keeps working unchanged.
 *
 * Every claim runs as one pass (see fused_sink.hh and DESIGN.md
 * Sec. 10/11): when a worker claims the front of the pending queue
 * it also claims every other *pending* request sharing the same
 * CaptureKey — same (program, input, instruction budget), differing
 * only in predictor configuration — and each claimed cell becomes one
 * lane of a FusedAnalysisSink fed by a single stream. The coalescing
 * window is therefore the pending queue at claim time: a batch
 * enqueued atomically by run()/submitAll() coalesces exactly as one
 * batch, while a serve daemon's requests coalesce opportunistically
 * with whatever is still queued. Cells with different budgets never
 * coalesce because their CaptureKeys differ; a lone cell is a
 * one-lane pass. The pass's stream is either
 *
 *   - the full stream: the program is assembled once per process and
 *     profiled once per CaptureKey (pass 1, whose ExecProfile the
 *     RunCache shares across passes), then re-simulated into the
 *     lanes (pass 2); or
 *   - the phase-sampled stream of runSampledAnalysis (PPM_SAMPLE).
 *
 * Each cell's analysis is bit-identical to the serial two-pass
 * runModel() path because the simulator is deterministic and lanes
 * are fully independent (asserted in tests/test_runner.cc,
 * tests/test_fused.cc and tests/test_engine_api.cc). Each lane
 * checks that pass 2 saw exactly the instructions pass 1 profiled.
 *
 * Captures (pass-1 profiles) are reference-counted across in-flight
 * requests and released when the last request needing one
 * completes; with EngineOptions::captureRetentionBytes > 0 the
 * RunCache keeps released profiles in a bounded LRU instead (the
 * serve daemon's cross-request memoization tier).
 *
 * Environment knobs (resolved at engine construction; see
 * EngineOptions::fromEnv()):
 *   PPM_THREADS       worker count (default: hardware concurrency);
 *                     each pass runs on its worker's thread
 *   PPM_VERIFY=1      run every cell with differential verification:
 *                     oracle predictors in lockstep with pred/ plus
 *                     the DPG invariant audit (see src/verify/,
 *                     TESTING.md); any divergence throws
 *   PPM_SAMPLE=<interval>,<warmup>,<maxphases>
 *                     phase-sampled passes (see
 *                     runner/sampled_run.hh and DESIGN.md Sec. 13):
 *                     profile + checkpoint the full budget once,
 *                     analyze one weighted representative interval
 *                     per phase. Off by default; PPM_VERIFY wins
 *                     (verified cells run unsampled)
 *   PPM_BENCH_JSON    path: the shared engine writes a stage-timing
 *                     JSON report at process exit
 *   PPM_TRACE_JSON    path: hierarchical spans (assemble / simulate /
 *                     pass / run_batch) are captured and exported as
 *                     Chrome-trace JSON at process exit
 *   PPM_METRICS       path or "-": the metrics registry is dumped at
 *                     process exit (see obs/obs.hh)
 *
 * Malformed env values (PPM_THREADS=abc) throw EnvError naming the
 * variable instead of being silently treated as unset.
 */

#ifndef PPM_RUNNER_ENGINE_HH
#define PPM_RUNNER_ENGINE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/experiment.hh"
#include "obs/metrics.hh"
#include "runner/run_cache.hh"
#include "runner/sampled_run.hh"
#include "workloads/workload.hh"

namespace ppm {

/**
 * Wall-time breakdown of one experiment cell: one lane of a pass.
 * Costs the pass pays once (stream production, checkpoints,
 * fast-forward) are attributed to lane 0 only, so summing any field
 * over cells never double-counts (see stage_report.cc).
 */
struct StageTiming
{
    double assembleSec = 0.0;  ///< 0 when the program came from cache.
    double simulateSec = 0.0;  ///< Pass-1 profile (of the cell that ran it).

    /** Wall seconds inside this lane's own analysis calls. */
    double analyzeSec = 0.0;

    /** The capture was reused from the cache (another cell ran it). */
    bool captureShared = false;

    /** Lane count of this cell's pass. */
    unsigned lanes = 0;

    /** This cell's lane index within its pass. */
    unsigned laneIndex = 0;

    /**
     * Stream production of the pass (pass wall minus the per-lane
     * analyze times): the pass-2 re-simulation and block staging, or
     * a sampled pass's pass-B stream. Lane 0 only.
     */
    double dispatchSec = 0.0;

    std::uint64_t dynInstrs = 0;

    /** Seconds the request waited in the pending queue. */
    double queueSec = 0.0;

    // --- phase sampling (PPM_SAMPLE; runner/sampled_run.hh) --------

    /** This cell ran as a lane of a phase-sampled pass. */
    bool sampled = false;

    /** Phases the clusterer found (0 when not sampled). */
    unsigned phases = 0;

    /**
     * Instructions the sampled pass analyzed in pass B (warm-up +
     * representatives). Lane 0 only.
     */
    std::uint64_t sampledInstrs = 0;

    /** Checkpoint capture (dirty-page copy) seconds. Lane 0 only. */
    double checkpointSec = 0.0;

    /**
     * Pass-B fast-forward seconds (page-delta restores + gap
     * simulation). Lane 0 only.
     */
    double fastForwardSec = 0.0;
};

/** One experiment cell. */
struct ExperimentJob
{
    std::shared_ptr<const Program> program;
    std::shared_ptr<const std::vector<Value>> input;
    ExperimentConfig config{};
    bool isFloat = false;

    /** Assembly cost, when the job's creator assembled the program. */
    double assembleSec = 0.0;
};

/** One cell's result. */
struct ExperimentOutcome
{
    DpgStats stats;
    bool isFloat = false;
    StageTiming timing;
};

/** Construction-time overrides; 0 / nullopt defer to the environment. */
struct EngineOptions
{
    unsigned threads = 0;

    std::optional<bool> verify;

    /**
     * When > 0, released captures stay cached in an LRU bounded to
     * roughly this many bytes of profile memory — the serve daemon's
     * cross-request memoization tier (RunCache::setRetentionBytes).
     * 0 (default) releases captures eagerly, batch-engine style.
     */
    std::uint64_t captureRetentionBytes = 0;

    /**
     * Phase-sampling knobs; nullopt defers to PPM_SAMPLE (see
     * runner/sampled_run.hh). A disabled value (the unset-variable
     * default) keeps every classic path byte-identical. PPM_VERIFY
     * wins over sampling: differential verification audits full
     * per-instruction state, so verified cells run unsampled.
     */
    std::optional<SampleOptions> sample;

    /**
     * Every knob resolved from the environment (PPM_THREADS,
     * PPM_VERIFY, PPM_SAMPLE), with the
     * documented defaults for unset variables. The single resolution
     * path shared by the engine constructor, the CLI, the serve
     * daemon, and tests — a malformed value throws EnvError naming
     * the variable.
     */
    static EngineOptions fromEnv();

    /**
     * This options value with every unset field (0 / nullopt) filled
     * from the environment. Explicit fields win; their env variables
     * are then not even parsed, so an override also shields a
     * malformed variable.
     */
    EngineOptions withEnvFallback() const;
};

/** Terminal state of a submitted request. */
enum class RequestStatus
{
    Pending,   ///< Queued; no worker has claimed it yet.
    Running,   ///< Claimed by a worker as a lane of a pass.
    Done,      ///< Completed; outcome available.
    Failed,    ///< Completed with an exception (wait() rethrows).
    Cancelled, ///< Unqueued by cancel() before any worker claimed it.
};

/** wait() on a request that was cancelled before running. */
class RequestCancelled : public std::runtime_error
{
  public:
    RequestCancelled()
        : std::runtime_error("experiment request cancelled")
    {
    }
};

namespace detail {
struct RequestState;
} // namespace detail

class ExperimentEngine;

/**
 * Caller's end of one submitted request. Handles are cheap shared
 * references; they must not outlive the engine that issued them.
 */
class RequestHandle
{
  public:
    RequestHandle() = default;

    bool valid() const { return state_ != nullptr; }

    /** Engine-unique, monotonically increasing admission id. */
    std::uint64_t id() const;

    RequestStatus status() const;

    /**
     * Block until the request reaches a terminal state, then move the
     * outcome out (single-shot). Rethrows the cell's exception on
     * Failed; throws RequestCancelled on Cancelled.
     */
    ExperimentOutcome wait();

    /**
     * Unqueue the request if no worker claimed it yet. Returns true
     * when the request was cancelled (wait() will throw
     * RequestCancelled), false when it already ran or is running.
     */
    bool cancel();

  private:
    friend class ExperimentEngine;
    explicit RequestHandle(std::shared_ptr<detail::RequestState> s)
        : state_(std::move(s))
    {
    }

    std::shared_ptr<detail::RequestState> state_;
};

class ExperimentEngine
{
  public:
    explicit ExperimentEngine(const EngineOptions &opts = {});
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Admit one request into the pending queue and return its handle.
     * Workers claim continuously; the request may coalesce into one
     * pass with other pending requests sharing its CaptureKey.
     */
    RequestHandle submit(ExperimentJob job);

    /**
     * Admit every job atomically — all enter the pending queue before
     * any worker can claim one, so cells sharing a CaptureKey are
     * guaranteed to coalesce exactly as one batch (the run() shim's
     * grouping guarantee). Handles are in @p jobs order.
     */
    std::vector<RequestHandle>
    submitAll(const std::vector<ExperimentJob> &jobs);

    /**
     * Batch shim over submitAll(): run every job, returning outcomes
     * in submission order. The first job exception (again in
     * submission order) is rethrown after the whole batch drains.
     * An empty batch returns an empty vector without touching the
     * pool.
     */
    std::vector<ExperimentOutcome>
    run(const std::vector<ExperimentJob> &jobs);

    /** Build a job for one (workload, config) cell. */
    ExperimentJob
    makeJob(const Workload &w, const ExperimentConfig &config,
            std::uint64_t seed = kDefaultWorkloadSeed);

    /**
     * Jobs for @p workloads × @p kinds in paper presentation order
     * (per workload: every predictor); @p base supplies every knob
     * except dpg.kind.
     */
    std::vector<ExperimentJob>
    workloadMatrix(const std::vector<Workload> &workloads,
                   const std::vector<PredictorKind> &kinds,
                   const ExperimentConfig &base);

    RunCache &cache() { return cache_; }
    unsigned threads() const { return threads_; }
    bool verifyEnabled() const { return verify_; }

    const SampleOptions &sampleOptions() const { return sample_; }

    /** Requests admitted and not yet terminal (pending + running). */
    unsigned inflight() const;

    /** Requests queued and not yet claimed by a worker. */
    std::size_t queueDepth() const;

    /** One entry per completed cell, in completion batches. */
    struct TimedRun
    {
        std::string workload;
        PredictorKind kind;
        StageTiming timing;
    };

    /** Timing history of every completed cell plus total active wall. */
    std::vector<TimedRun> history() const;
    double totalWallSec() const;

    /**
     * The process-wide engine the bench drivers and CLI share. Writes
     * the PPM_BENCH_JSON stage report at exit when that is set.
     */
    static ExperimentEngine &shared();

  private:
    friend class RequestHandle;
    using StatePtr = std::shared_ptr<detail::RequestState>;

    /** Get-or-run the pass-1 profile for @p job's CaptureKey. */
    RunCache::CaptureRef captureFor(const ExperimentJob &job);

    /**
     * Run a claimed group — same CaptureKey, one lane per request —
     * as one pass. The stream is the phase-sampled one when sampling
     * is configured and no lane verifies (no RunCache entry: the
     * profiling pass streams straight into checkpoints), else the
     * re-simulation after the cached pass-1 profile. Outcomes are
     * returned in @p group order.
     */
    std::vector<ExperimentOutcome>
    runPass(const std::vector<StatePtr> &group);

    /** Enqueue one request; queueMutex_ must be held. */
    StatePtr enqueueLocked(ExperimentJob job, bool recordHistory);

    /** Spawn the worker pool on first use; queueMutex_ must be held. */
    void ensureWorkersLocked();

    /**
     * Pop the front request plus every other pending request sharing
     * its CaptureKey (the coalescing window); queueMutex_ must be
     * held.
     */
    std::vector<StatePtr> claimLocked();

    /** Execute one claimed group and publish its terminal states. */
    void runClaimed(const std::vector<StatePtr> &group);

    void workerLoop(unsigned wi);

    /** submitAll with control over history recording (run() shim). */
    std::vector<RequestHandle>
    submitAllInternal(const std::vector<ExperimentJob> &jobs,
                      bool recordHistory);

    RunCache cache_;
    unsigned threads_ = 1;
    bool verify_ = false;
    bool reportAtExit_ = false;
    SampleOptions sample_{};

    /** Metric handles; null when observability is off (obs/obs.hh). */
    obs::Counter *obsJobs_ = nullptr;
    obs::Counter *obsBatches_ = nullptr;
    obs::Counter *obsSimulations_ = nullptr;
    obs::Counter *obsPasses_ = nullptr;
    obs::Counter *obsSampledPasses_ = nullptr;
    obs::Counter *obsWorkerBusyUs_ = nullptr;
    obs::Counter *obsCancelled_ = nullptr;
    obs::Gauge *obsQueueDepth_ = nullptr;
    obs::Gauge *obsInflight_ = nullptr;
    obs::Gauge *obsHitRate_ = nullptr;
    obs::Histogram *obsQueueUs_ = nullptr;
    obs::Histogram *obsLatencyUs_ = nullptr;

    // --- request queue and worker pool -----------------------------
    mutable std::mutex queueMutex_;
    std::condition_variable workCv_; ///< Workers: work or stop.
    std::condition_variable doneCv_; ///< Waiters: a request finished.
    std::deque<StatePtr> pending_;
    std::vector<std::jthread> pool_;
    bool poolStarted_ = false;
    bool stopping_ = false;
    std::uint64_t nextRequestId_ = 1;
    unsigned inflight_ = 0;

    /**
     * In-flight requests per CaptureKey: the capture is released (or
     * retired into the retention LRU) when the count reaches zero.
     */
    std::unordered_map<CaptureKey, unsigned, CaptureKeyHash> liveKeys_;

    /**
     * Active-window wall accounting: the clock runs while at least
     * one request is in flight, so overlapping requests count once.
     */
    std::chrono::steady_clock::time_point activeStart_{};
    double windowBusySec_ = 0.0;

    mutable std::mutex historyMutex_;
    std::vector<TimedRun> history_;
    double totalWallSec_ = 0.0;
};

} // namespace ppm

#endif // PPM_RUNNER_ENGINE_HH
