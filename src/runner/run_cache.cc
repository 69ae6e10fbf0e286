#include "runner/run_cache.hh"

#include <chrono>

#include "asmr/assembler.hh"
#include "obs/obs.hh"

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

std::uint64_t
hashInput(const std::vector<Value> &input)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(input.size());
    for (Value v : input)
        mix(v);
    return h;
}

RunCache::RunCache()
    : obsProgramHits_(obs::counter("cache.program_hits")),
      obsProgramMisses_(obs::counter("cache.program_misses")),
      obsProgramCollisions_(obs::counter("cache.program_collisions")),
      obsCaptureHits_(obs::counter("cache.capture_hits")),
      obsCaptureMisses_(obs::counter("cache.capture_misses")),
      obsWaitersBlocked_(obs::counter("cache.waiters_blocked")),
      obsCaptureEvictions_(obs::counter("cache.capture_evictions"))
{
}

std::string
RunCache::programKey(const std::string &name,
                     std::string_view source) const
{
    const std::uint64_t src_hash =
        hashHook_ ? hashHook_(source)
                  : std::hash<std::string_view>{}(source);
    return name + '\0' + std::to_string(src_hash);
}

std::shared_ptr<const Program>
RunCache::program(const std::string &name, std::string_view source,
                  double *assemble_sec)
{
    if (assemble_sec)
        *assemble_sec = 0.0;

    // Key by name + source hash for lookup, but never *trust* the
    // hash: a 64-bit collision silently returning the wrong cached
    // program would corrupt every figure derived from it, so hits are
    // confirmed against the stored source text.
    const std::string key = programKey(name, source);
    bool collided = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = programs_.find(key);
        if (it != programs_.end()) {
            if (it->second.source == source) {
                ++counters_.programHits;
                if (obsProgramHits_)
                    obsProgramHits_->add();
                return it->second.program;
            }
            // Same key, different source: a genuine hash collision.
            // Fall back to a fresh assemble; the first image keeps the
            // cache slot (capture keys alias program identity).
            collided = true;
        }
    }
    if (collided) {
        ++counters_.programCollisions;
        if (obsProgramCollisions_)
            obsProgramCollisions_->add();
        const auto t0 = Clock::now();
        obs::Span span("assemble", "runner");
        auto prog = std::make_shared<const Program>(
            assemble(std::string(source), name));
        if (assemble_sec)
            *assemble_sec = secondsSince(t0);
        return prog;
    }

    const auto t0 = Clock::now();
    std::shared_ptr<const Program> prog;
    {
        obs::Span span("assemble", "runner");
        prog = std::make_shared<const Program>(
            assemble(std::string(source), name));
    }
    const double elapsed = secondsSince(t0);
    if (assemble_sec)
        *assemble_sec = elapsed;

    std::lock_guard<std::mutex> lock(mutex_);
    // A racing thread may have assembled the same source; keep the
    // first image so capture keys (program identity) stay unique.
    auto [it, inserted] = programs_.emplace(
        key, ProgramEntry{std::string(source), std::move(prog)});
    if (inserted) {
        ++counters_.programMisses;
        if (obsProgramMisses_)
            obsProgramMisses_->add();
    } else {
        ++counters_.programHits;
        if (obsProgramHits_)
            obsProgramHits_->add();
    }
    return it->second.program;
}

RunCache::CaptureRef
RunCache::capture(const CaptureKey &key,
                  const std::function<CaptureResult()> &fn)
{
    std::promise<std::shared_ptr<const CaptureResult>> promise;
    CaptureFuture future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = captures_.find(key);
        if (it != captures_.end()) {
            ++counters_.captureHits;
            future = it->second;
            // A hit on a retained capture puts it back in flight:
            // promote it OUT of the retention tier (not just to the
            // LRU tail) so a concurrent eviction scan can never pick
            // an in-flight capture as victim. The releasing caller
            // re-retains it once the last reference drops, keeping
            // retainedBytes_ exact across the hit/release cycle.
            auto rt = retained_.find(key);
            if (rt != retained_.end()) {
                retainedBytes_ -= rt->second.bytes;
                lru_.erase(rt->second.lruIt);
                retained_.erase(rt);
            }
        } else {
            future = promise.get_future().share();
            captures_.emplace(key, future);
            ++counters_.captureMisses;
            owner = true;
        }
    }
    if (!owner) {
        if (obsCaptureHits_)
            obsCaptureHits_->add();
        // get() blocks (outside the lock) until the computing thread
        // fulfils the promise.
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            {
                // counters_ is mutex-guarded everywhere else; an
                // unguarded ++ here raced with counters() readers
                // and concurrent waiters (lost increments).
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.waitersBlocked;
            }
            if (obsWaitersBlocked_)
                obsWaitersBlocked_->add();
            obs::Span span("capture_wait", "runner");
            return {future.get(), true};
        }
        return {future.get(), true};
    }
    if (obsCaptureMisses_)
        obsCaptureMisses_->add();

    // Compute outside the lock so unrelated captures proceed in
    // parallel; waiters for this key block on the shared_future.
    try {
        promise.set_value(
            std::make_shared<const CaptureResult>(fn()));
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        captures_.erase(key);
        throw;
    }
    return {future.get(), false};
}

void
RunCache::release(const CaptureKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (retentionBytes_ == 0) {
        captures_.erase(key);
        return;
    }
    retainLocked(key);
}

void
RunCache::retainLocked(const CaptureKey &key)
{
    auto it = captures_.find(key);
    if (it == captures_.end())
        return;
    auto rt = retained_.find(key);
    if (rt != retained_.end()) {
        lru_.splice(lru_.end(), lru_, rt->second.lruIt);
        return;
    }
    // Released captures are always completed computes, but guard
    // against a not-yet-ready future anyway: dropping it is safe
    // (in-flight refs hold the shared_future).
    if (it->second.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
        captures_.erase(it);
        return;
    }
    std::shared_ptr<const CaptureResult> result = it->second.get();
    const std::uint64_t bytes =
        result && result->profile ? result->profile->memoryBytes() : 0;
    lru_.push_back(key);
    retained_.emplace(key, Retained{std::prev(lru_.end()), bytes});
    retainedBytes_ += bytes;
    evictLocked();
}

void
RunCache::evictLocked()
{
    while (retainedBytes_ > retentionBytes_ && !lru_.empty()) {
        const CaptureKey victim = lru_.front();
        lru_.pop_front();
        auto rt = retained_.find(victim);
        if (rt == retained_.end()) {
            // Stale LRU entry (the capture went back in flight and
            // was promoted out of the tier): skip it — erasing
            // captures_ here would tear down an in-flight capture,
            // and counting it double-counted capture_evictions.
            continue;
        }
        retainedBytes_ -= rt->second.bytes;
        retained_.erase(rt);
        captures_.erase(victim);
        ++counters_.captureEvictions;
        if (obsCaptureEvictions_)
            obsCaptureEvictions_->add();
    }
}

void
RunCache::setRetentionBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    retentionBytes_ = bytes;
    if (retentionBytes_ == 0) {
        for (const CaptureKey &key : lru_)
            captures_.erase(key);
        lru_.clear();
        retained_.clear();
        retainedBytes_ = 0;
        return;
    }
    evictLocked();
}

std::uint64_t
RunCache::retainedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retainedBytes_;
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    programs_.clear();
    captures_.clear();
    lru_.clear();
    retained_.clear();
    retainedBytes_ = 0;
}

RunCache::Counters
RunCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
RunCache::setSourceHashForTesting(
    std::function<std::uint64_t(std::string_view)> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hashHook_ = std::move(hook);
}

} // namespace ppm
