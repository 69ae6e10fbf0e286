#include "runner/fused_sink.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

FusedAnalysisSink::FusedAnalysisSink(unsigned dispatchThreads)
    : dispatchThreads_(dispatchThreads == 0 ? 1 : dispatchThreads)
{
    staged_.reserve(kStageBlock);
}

FusedAnalysisSink::~FusedAnalysisSink()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

std::size_t
FusedAnalysisSink::addLane(std::unique_ptr<DpgAnalyzer> analyzer)
{
    lanes_.push_back(Lane{std::move(analyzer), 0.0});
    return lanes_.size() - 1;
}

void
FusedAnalysisSink::setWarmup(bool on)
{
    {
        // Dispatch is synchronous (the per-block barrier drains every
        // lane before dispatch returns), so no worker is mid-block
        // here; the lock still publishes the flag to the pool.
        std::lock_guard<std::mutex> lock(m_);
        warmup_ = on;
    }
    if (!on) {
        for (Lane &lane : lanes_)
            lane.analyzer->markWarmupEnd();
    }
}

DpgStats
FusedAnalysisSink::takeStats(std::size_t i)
{
    DpgStats stats = lanes_[i].analyzer->takeStats();
    if (stats.dynInstrs != delivered_) {
        throw std::runtime_error(
            "fused lane " + std::to_string(i) + " analyzed " +
            std::to_string(stats.dynInstrs) +
            " instructions, but the sink delivered " +
            std::to_string(delivered_));
    }
    return stats;
}

void
FusedAnalysisSink::dispatch(std::span<const DynInstr> block)
{
    if (!warmup_)
        delivered_ += block.size();
    if (dispatchThreads_ > 1 && lanes_.size() > 1) {
        dispatchParallel(block);
        return;
    }
    // Two clock reads per lane per 256-instruction block (< 0.1 % of
    // a lane's analyze cost) buy exact per-lane stage attribution.
    for (Lane &lane : lanes_) {
        const auto t0 = Clock::now();
        if (warmup_) [[unlikely]]
            lane.analyzer->warmupBlock(block);
        else
            lane.analyzer->onBlock(block);
        lane.seconds += secondsSince(t0);
    }
}

void
FusedAnalysisSink::ensureWorkers()
{
    if (!workers_.empty())
        return;
    const std::size_t n =
        std::min<std::size_t>(dispatchThreads_, lanes_.size());
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
FusedAnalysisSink::dispatchParallel(std::span<const DynInstr> block)
{
    ensureWorkers();
    std::unique_lock<std::mutex> lock(m_);
    current_ = block;
    lanesDone_ = 0;
    nextLane_.store(0, std::memory_order_relaxed);
    ++generation_;
    open_ = true;
    workCv_.notify_all();
    // The barrier per block is what keeps lanes lock-free inside
    // onBlock: no lane is ever touched by two threads concurrently,
    // and the next block is not produced until every lane consumed
    // this one. Waiting for busy_ == 0 (not just the lane count)
    // covers a worker that joined this block but lost every claim:
    // it still holds this block's span until it re-takes the lock.
    // Closing the block covers the other straggler, one woken for
    // this block that reaches the lock only after the barrier: it
    // finds the block closed and waits for the next one, instead of
    // joining the next block with this block's span.
    doneCv_.wait(lock, [&] {
        return lanesDone_ == lanes_.size() && busy_ == 0;
    });
    open_ = false;
}

void
FusedAnalysisSink::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    std::uint64_t seen = 0;
    const auto ready = [&] {
        return stop_ || (open_ && generation_ != seen);
    };
    for (;;) {
        if (syncHook_)
            syncHook_(SyncPoint::Idle);
        workCv_.wait(lock, ready);
        if (syncHook_) {
            lock.unlock();
            syncHook_(SyncPoint::Woken);
            lock.lock();
            if (!ready())
                continue;
        }
        if (stop_)
            return;
        seen = generation_;
        const std::span<const DynInstr> block = current_;
        // Copy the mode under the lock: setWarmup only flips between
        // blocks, but workers must not read the member unlocked.
        const bool warm = warmup_;
        ++busy_;
        lock.unlock();
        if (syncHook_)
            syncHook_(SyncPoint::Claim);
        std::size_t processed = 0;
        for (;;) {
            const std::size_t i =
                nextLane_.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_.size())
                break;
            Lane &lane = lanes_[i];
            const auto t0 = Clock::now();
            if (warm) [[unlikely]]
                lane.analyzer->warmupBlock(block);
            else
                lane.analyzer->onBlock(block);
            lane.seconds += secondsSince(t0);
            ++processed;
        }
        lock.lock();
        lanesDone_ += processed;
        --busy_;
        if (lanesDone_ == lanes_.size() && busy_ == 0)
            doneCv_.notify_one();
    }
}

void
FusedAnalysisSink::flushStaged()
{
    if (staged_.empty())
        return;
    dispatch(std::span<const DynInstr>(staged_));
    staged_.clear();
}

void
FusedAnalysisSink::onInstr(const DynInstr &di)
{
    staged_.push_back(di);
    if (staged_.size() >= kStageBlock)
        flushStaged();
}

void
FusedAnalysisSink::onRunEnd()
{
    flushStaged();
    for (Lane &lane : lanes_) {
        const auto t0 = Clock::now();
        lane.analyzer->onRunEnd();
        lane.seconds += secondsSince(t0);
    }
}

} // namespace ppm
