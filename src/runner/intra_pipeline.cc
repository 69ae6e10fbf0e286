#include "runner/intra_pipeline.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

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

IntraRunPipeline::IntraRunPipeline(const Program &prog,
                                   const ExecProfile &profile,
                                   const DpgConfig &config, unsigned threads)
    : cfg_(config)
{
    if (cfg_.verify)
        throw std::invalid_argument(
            "IntraRunPipeline: differential verification requires the "
            "serial analyzer (run with PPM_INTRA_THREADS=1)");
    const unsigned total = std::clamp(threads, 2u, kMaxThreads);
    const unsigned workers = total - 1;

    auto add = [&](const char *name, const DpgRole &role) {
        Stage st;
        st.analyzer =
            std::make_unique<DpgAnalyzer>(prog, profile, cfg_, role);
        st.name = name;
        stages_.push_back(std::move(st));
    };

    if (workers == 1) {
        // One worker runs the full-role analyzer: this degenerates to
        // producer/consumer overlap with zero split overhead.
        add("full", DpgRole{});
        graphStage_ = 0;
    } else if (workers == 2) {
        add("predict", DpgRole{true, false, false, 0, 1});
        add("graph+arcs", DpgRole{false, true, true, 0, 1});
        graphStage_ = 1;
    } else {
        add("predict", DpgRole{true, false, false, 0, 1});
        add("graph", DpgRole{false, true, false, 0, 1});
        graphStage_ = 1;
        const unsigned shards = workers - 2;
        for (unsigned s = 0; s < shards; ++s)
            add("arcs", DpgRole{false, false, true, s, shards});
    }

    staged_.reserve(kStageBlock);
    for (unsigned wi = 0; wi < stages_.size(); ++wi)
        stages_[wi].thread =
            std::thread([this, wi] { workerLoop(wi); });
}

IntraRunPipeline::~IntraRunPipeline()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        abort_ = true;
    }
    workCv_.notify_all();
    spaceCv_.notify_all();
    for (Stage &st : stages_)
        if (st.thread.joinable())
            st.thread.join();
}

std::uint64_t
IntraRunPipeline::minDoneLocked() const
{
    std::uint64_t lo = stages_[0].done;
    for (const Stage &st : stages_)
        lo = std::min(lo, st.done);
    return lo;
}

void
IntraRunPipeline::publishBlock(std::span<const DynInstr> block)
{
    std::unique_lock<std::mutex> lock(m_);
    spaceCv_.wait(lock, [&] {
        return error_ || abort_ || head_ - minDoneLocked() < kRingSlots;
    });
    if (error_)
        std::rethrow_exception(error_);
    if (abort_)
        return;
    // The slot at head_ % kRingSlots was last used for block
    // head_ - kRingSlots, which every stage has finished (the wait
    // condition), so no worker can still be reading it.
    Slot &slot = slots_[head_ % kRingSlots];
    slot.instrs.assign(block.begin(), block.end());
    slot.ann.assign(block.size(), PredByte{0});
    ++head_;
    workCv_.notify_all();
}

void
IntraRunPipeline::onInstr(const DynInstr &di)
{
    staged_.push_back(di);
    if (staged_.size() >= kStageBlock) {
        publishBlock(staged_);
        staged_.clear();
    }
}

void
IntraRunPipeline::onRunEnd()
{
    finish();
}

void
IntraRunPipeline::workerLoop(unsigned wi)
{
    if (obs::Tracer *t = obs::tracer()) {
        t->setThreadName("intra-" + std::string(stages_[wi].name) +
                         "-" + std::to_string(wi));
    }
    obs::Span span("intra_stage", "runner");
    Stage &self = stages_[wi];
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        // Stage 0 consumes published blocks; the bookkeeping stages
        // additionally wait for stage 0's annotations.
        workCv_.wait(lock, [&] {
            if (error_ || abort_)
                return true;
            const std::uint64_t ready =
                wi == 0 ? head_ : std::min(head_, stages_[0].done);
            return self.done < ready || (eof_ && self.done == head_);
        });
        if (error_ || abort_)
            return;
        const std::uint64_t ready =
            wi == 0 ? head_ : std::min(head_, stages_[0].done);
        if (self.done >= ready) {
            if (eof_ && self.done == head_)
                return;
            continue;
        }
        Slot &slot = slots_[self.done % kRingSlots];
        lock.unlock();
        const auto t0 = Clock::now();
        try {
            const std::span<const DynInstr> block(slot.instrs.data(),
                                                  slot.instrs.size());
            DpgAnalyzer &an = *self.analyzer;
            if (an.role().full())
                an.onBlock(block);
            else if (an.role().predict)
                an.predictBlock(block, slot.ann.data());
            else
                an.analyzeAnnotatedBlock(block, slot.ann.data());
        } catch (...) {
            lock.lock();
            if (!error_)
                error_ = std::current_exception();
            workCv_.notify_all();
            spaceCv_.notify_all();
            return;
        }
        self.seconds += secondsSince(t0);
        lock.lock();
        ++self.done;
        // Stage 0's progress may unblock every bookkeeping stage;
        // a bookkeeping stage's progress only matters to the
        // producer's ring-space wait.
        if (wi == 0)
            workCv_.notify_all();
        spaceCv_.notify_all();
    }
}

void
IntraRunPipeline::finish()
{
    if (finished_)
        return;
    finished_ = true;
    std::exception_ptr publishError;
    if (!staged_.empty()) {
        try {
            publishBlock(staged_);
        } catch (...) {
            publishError = std::current_exception();
        }
        staged_.clear();
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        eof_ = true;
    }
    workCv_.notify_all();
    for (Stage &st : stages_)
        if (st.thread.joinable())
            st.thread.join();
    if (error_)
        std::rethrow_exception(error_);
    if (publishError)
        std::rethrow_exception(publishError);
}

DpgStats
IntraRunPipeline::takeStats()
{
    finish();

    std::vector<DpgStats> parts;
    parts.reserve(stages_.size());
    for (Stage &st : stages_)
        parts.push_back(st.analyzer->takeStats());

    DpgStats merged = std::move(parts[graphStage_]);
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        if (i == graphStage_)
            continue;
        const DpgRole &role = stages_[i].analyzer->role();
        if (role.arcs)
            merged.mergePartial(parts[i]);
        if (role.predict)
            merged.gshareAccuracy = parts[i].gshareAccuracy;
    }

    if (auto *c = obs::counter("runner.intra_runs"))
        c->add();
    if (auto *c = obs::counter("runner.intra_blocks"))
        c->add(head_);
    if (auto *h = obs::histogram("dpg.intra_shard_ops"))
        for (const Stage &st : stages_)
            if (st.analyzer->role().arcs)
                h->observe(st.analyzer->arcOps());
    for (const Stage &st : stages_)
        if (auto *c = obs::counter("runner.intra_stage_us." +
                                   std::string(st.name)))
            c->add(static_cast<std::uint64_t>(st.seconds * 1e6));

    return merged;
}

} // namespace ppm
