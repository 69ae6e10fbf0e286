/**
 * @file
 * sampled_100m: one m88ksim cell, context predictor, at a 100M
 * budget (PPM_WORKLOAD_SCALE=47), through the engine with
 * EngineOptions::sample set to 500000,50000,2 — the geometry of the
 * committed BENCH_hotpath.json sampled row. Most of its wall time is
 * the full-budget profile + checkpoint pass; only ~1.1M instructions
 * are analyzed. m88ksim takes no input, so the seed does not change
 * the stream; every run's fingerprint must equal the recorded digest
 * (run.py checks it).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "obs/obs.hh"
#include "runner/sampled_run.hh"
#include "verify/fingerprint.hh"

namespace ppm::perfbench {

namespace {

SampleOptions
geometry(bool tiny)
{
    SampleOptions s;
    s.intervalLen = tiny ? 200'000 : 500'000;
    s.warmupLen = tiny ? 20'000 : 50'000;
    s.maxPhases = 2;
    return s;
}

} // namespace

Result
runSampled100m(const Options &opts)
{
    // The scale is read when the workload roster is first built, so
    // it must be set before anything touches it.
    setenv("PPM_WORKLOAD_SCALE", opts.tiny ? "1" : "47", 1);
    Result r;
    const std::uint64_t budget = opts.tiny ? 2'000'000 : 100'000'000;

    // Set-up: engine construction and assembly of the scaled program.
    std::vector<double> setups;
    std::unique_ptr<ExperimentEngine> engine;
    ExperimentJob job;
    while (moreSetups(setups)) {
        const auto t0 = Clock::now();
        obs::Span span("bench.setup", "bench");
        EngineOptions eo;
        eo.threads = 1;
        eo.sample = geometry(opts.tiny);
        auto next = std::make_unique<ExperimentEngine>(eo);
        ExperimentConfig config;
        config.maxInstrs = budget;
        config.dpg.kind = PredictorKind::Context;
        ExperimentJob nextJob =
            next->makeJob(findWorkload("m88ksim"), config,
                          inputSeed(opts.seed));
        setups.push_back(secondsSince(t0));
        engine = std::move(next);
        job = std::move(nextJob);
    }

    std::vector<double> runMs;
    std::vector<std::string> fingerprints;
    std::vector<RunResult> results;
    std::size_t lastRunHistory = 0;
    const auto start = Clock::now();
    do {
        lastRunHistory = engine->history().size();
        const auto t0 = Clock::now();
        std::vector<ExperimentOutcome> out;
        {
            obs::Span span("bench.engine_run", "bench");
            out = engine->run({job});
        }
        runMs.push_back(1e3 * secondsSince(t0));
        fingerprints.push_back(verify::fingerprintJson(
            "workload:m88ksim", 0, {out.front().stats}));
        results.assign(1, RunResult{std::move(out.front().stats),
                                    out.front().isFloat});
    } while (secondsSince(start) + runMs.back() / 1e3 <= opts.seconds);
    const double rss = peakRssMb();
    const double measured = secondsSince(start);

    r.set("setup_s", median(setups), "s");
    r.set("wall_s", median(runMs) / 1e3, "s");
    r.set("req_p50_ms", percentile(runMs, 0.5), "ms");
    r.set("req_p95_ms", percentile(runMs, 0.95), "ms");
    r.set("req_per_s", double(runMs.size()) / measured, "1/s");
    r.set("peak_rss_mb", rss, "MB");
    std::cerr << "sampled_100m: " << runMs.size() << " run(s)\n";

    // Every run must render the same fingerprint; run.py compares it
    // with the recorded digest.
    for (const std::string &fp : fingerprints)
        r.check(fp == fingerprints.front());
    if (!opts.digestOut.empty()) {
        std::ofstream out(opts.digestOut, std::ios::binary);
        out << fingerprints.front();
        r.check(bool(out));
    }

    if (!opts.layers)
        return r;

    r.set("asmr.assemble_ms", 1e3 * job.assembleSec, "ms");
    r.set("asmr.programs", 1, "count");

    // SampledPassTiming is what the engine folds into StageTiming;
    // one direct pass exposes the whole breakdown (checkpoint bytes
    // included) and must agree with the engine's result.
    {
        obs::Span span("bench.sampled_pass", "bench");
        const SampledResult res = runSampledAnalysis(
            *job.program, *job.input, budget, {job.config.dpg},
            geometry(opts.tiny), 1);
        reportSampleLayer(r, res);
        r.check(verify::fingerprintJson("workload:m88ksim", 0,
                                        {res.stats.front()}) ==
                fingerprints.front());
    }
    const std::vector<double> bare =
        reportSimLayer(r, {{job.program.get(), job.input.get(), budget}});
    reportRunnerLayer(r, *engine, lastRunHistory, bare.front());
    {
        std::ostringstream sink;
        const auto t0 = Clock::now();
        renderFigures(sink, results);
        r.set("report.render_ms", 1e3 * secondsSince(t0), "ms");
    }
    reportRoleSplit(r, opts.tiny);
    probeServeLayer(r, opts);
    return r;
}

} // namespace ppm::perfbench
