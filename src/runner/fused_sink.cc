#include "runner/fused_sink.hh"

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

FusedAnalysisSink::FusedAnalysisSink(const Program &prog,
                                     const ExecProfile &profile,
                                     const std::vector<DpgConfig> &configs)
{
    staged_.reserve(kStageBlock);
    lanes_.reserve(configs.size());
    for (const DpgConfig &config : configs) {
        lanes_.push_back(
            Lane{std::make_unique<DpgAnalyzer>(prog, profile, config),
                 0.0});
    }
}

void
FusedAnalysisSink::setWarmup(bool on)
{
    warmup_ = on;
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

SampledResult
analyzeStream(const Program &prog, const ExecProfile &profile,
              const std::vector<DpgConfig> &configs,
              const std::function<void(FusedAnalysisSink &)> &produce)
{
    FusedAnalysisSink sink(prog, profile, configs);
    const auto t0 = Clock::now();
    produce(sink);
    const double passSec = secondsSince(t0);

    SampledResult r;
    double laneSum = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        r.stats.push_back(sink.takeStats(i));
        r.laneSeconds.push_back(sink.laneSeconds(i));
        laneSum += sink.laneSeconds(i);
    }
    r.timing.dispatchSec = passSec > laneSum ? passSec - laneSum : 0.0;
    return r;
}

} // namespace ppm
