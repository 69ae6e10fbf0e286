/**
 * @file
 * Per-process caches behind the experiment engine.
 *
 * Two levels, both thread-safe:
 *
 *  - a **program cache** keyed by (name, source hash): each workload
 *    is assembled once per process instead of once per experiment
 *    cell;
 *  - a **capture cache** keyed by (program identity, input hash,
 *    instruction budget): the pass-1 run — the ExecProfile that
 *    resolves write-once producers, plus its instruction count and
 *    wall time — is computed once and shared by every predictor
 *    configuration analyzing the same cell. Pass 2 re-simulates the
 *    deterministic stream, so an entry is a few kilobytes (8 bytes
 *    per static instruction), not a copy of the stream.
 *
 * A capture requested concurrently from several worker threads is
 * computed exactly once; the other threads block on a shared_future.
 * The engine releases a capture once the last cell needing it has
 * finished.
 *
 * Retention (the serve daemon's memoization tier): with
 * setRetentionBytes(N > 0), release() keeps the capture cached
 * instead of dropping it, in an LRU set bounded to ~N bytes of
 * profile memory — so identical requests arriving minutes apart
 * skip pass 1, while the resident set stays bounded. Retention off
 * (the default) preserves the batch engine's eager-release behavior.
 */

#ifndef PPM_RUNNER_RUN_CACHE_HH
#define PPM_RUNNER_RUN_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "asmr/program.hh"
#include "obs/metrics.hh"
#include "sim/profiler.hh"

namespace ppm {

/** Everything one pass-1 (profile) run produces. */
struct CaptureResult
{
    /** Complete exec-count profile of the run. */
    std::unique_ptr<ExecProfile> profile;

    /** Dynamic instructions the pass executed. */
    std::uint64_t dynInstrs = 0;

    /** Wall time of the pass-1 simulation, seconds. */
    double simulateSec = 0.0;
};

/** Identity of one (program, input, budget) experiment cell. */
struct CaptureKey
{
    const Program *program = nullptr;
    std::uint64_t inputHash = 0;
    std::uint64_t maxInstrs = 0;

    bool operator==(const CaptureKey &) const = default;
};

struct CaptureKeyHash
{
    std::size_t
    operator()(const CaptureKey &k) const
    {
        std::size_t h = std::hash<const Program *>{}(k.program);
        h ^= k.inputHash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h ^= k.maxInstrs + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        return h;
    }
};

/** FNV-1a over an input word stream (CaptureKey::inputHash). */
std::uint64_t hashInput(const std::vector<Value> &input);

/** The two caches; one instance lives inside each engine. */
class RunCache
{
  public:
    RunCache();

    /** Cache hit/miss counters (tests, stage reports). */
    struct Counters
    {
        std::uint64_t programHits = 0;
        std::uint64_t programMisses = 0;
        /** Lookups whose key matched but whose source text did not. */
        std::uint64_t programCollisions = 0;
        std::uint64_t captureHits = 0;
        std::uint64_t captureMisses = 0;
        /** Capture hits that had to block on an in-flight compute. */
        std::uint64_t waitersBlocked = 0;
        /** Retained captures evicted to stay under the byte budget. */
        std::uint64_t captureEvictions = 0;
    };

    /** Outcome of a capture lookup. */
    struct CaptureRef
    {
        std::shared_ptr<const CaptureResult> result;
        bool hit = false;  ///< Reused (or joined) an existing capture.
    };

    /**
     * Assemble @p source as @p name, or reuse the cached image when
     * the same (name, source) was assembled before. If @p assemble_sec
     * is non-null it receives the assembly wall time (0 on a hit).
     *
     * Lookup is by (name, source hash), but a hit is confirmed by
     * comparing the stored source text, so a 64-bit hash collision
     * falls back to a fresh (uncached) assemble instead of silently
     * returning the wrong program.
     */
    std::shared_ptr<const Program>
    program(const std::string &name, std::string_view source,
            double *assemble_sec = nullptr);

    /**
     * Replace the source-hash function used for program keying.
     * Testing seam: a constant hook forces every source pair to
     * collide, exercising the collision-recovery path. Install before
     * any concurrent program() use.
     */
    void setSourceHashForTesting(
        std::function<std::uint64_t(std::string_view)> hook);

    /**
     * The capture for @p key, computing it via @p fn exactly once
     * process-wide; concurrent callers for the same key block until
     * the first finishes.
     */
    CaptureRef capture(const CaptureKey &key,
                       const std::function<CaptureResult()> &fn);

    /**
     * Release the capture for @p key: with retention off (default)
     * it is dropped immediately; with retention on it moves to the
     * bounded LRU set (in-flight refs stay valid either way).
     */
    void release(const CaptureKey &key);

    /**
     * Keep released captures cached until the retained set exceeds
     * @p bytes of profile memory (LRU eviction). 0 disables retention
     * and drops every currently retained capture.
     */
    void setRetentionBytes(std::uint64_t bytes);

    /** Approximate bytes held by retained (released) captures. */
    std::uint64_t retainedBytes() const;

    /** Drop everything. */
    void clear();

    Counters counters() const;

  private:
    using CaptureFuture =
        std::shared_future<std::shared_ptr<const CaptureResult>>;

    /** Cached image plus the exact source it was assembled from. */
    struct ProgramEntry
    {
        std::string source;
        std::shared_ptr<const Program> program;
    };

    std::string programKey(const std::string &name,
                           std::string_view source) const;

    /** LRU bookkeeping for one retained (released) capture. */
    struct Retained
    {
        std::list<CaptureKey>::iterator lruIt;
        std::uint64_t bytes = 0;
    };

    /** Move @p key into the retained LRU set; evict over budget. */
    void retainLocked(const CaptureKey &key);

    /** Drop every retained capture over the byte budget (oldest first). */
    void evictLocked();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, ProgramEntry> programs_;
    std::unordered_map<CaptureKey, CaptureFuture, CaptureKeyHash>
        captures_;
    std::uint64_t retentionBytes_ = 0;
    std::uint64_t retainedBytes_ = 0;
    std::list<CaptureKey> lru_; ///< Front = least recently used.
    std::unordered_map<CaptureKey, Retained, CaptureKeyHash> retained_;
    Counters counters_;
    std::function<std::uint64_t(std::string_view)> hashHook_;

    /** Null when observability is off (see obs/obs.hh). */
    obs::Counter *obsProgramHits_;
    obs::Counter *obsProgramMisses_;
    obs::Counter *obsProgramCollisions_;
    obs::Counter *obsCaptureHits_;
    obs::Counter *obsCaptureMisses_;
    obs::Counter *obsWaitersBlocked_;
    obs::Counter *obsCaptureEvictions_;
};

} // namespace ppm

#endif // PPM_RUNNER_RUN_CACHE_HH
