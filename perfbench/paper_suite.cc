/**
 * @file
 * paper_suite: the paper's own job. The exact cell lists of the ten
 * paper drivers (bench/table1_characteristics, bench/fig5_overall ...
 * bench/fig13_branches), issued as successive batches on one 4-thread
 * engine (ExperimentEngine::submitAll, results taken in submission
 * order exactly as run() does) and rendered through the
 * report/figure_report printers plus each driver's headline lines.
 *
 * At seed 0 the inputs are the drivers' defaults, so the rendered text
 * is byte-identical to the ten drivers' concatenated stdout (run.py
 * checks its digest). At every seed a seed-chosen sample of cells is
 * re-run through runModel and compared as fingerprint bytes.
 */

#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

#include "analysis/experiment.hh"
#include "bench.hh"
#include "obs/obs.hh"
#include "report/figure_report.hh"
#include "verify/fingerprint.hh"

namespace ppm::perfbench {

namespace {

using Render = std::function<void(std::ostream &,
                                  const std::vector<RunResult> &)>;

/** One paper driver: its cells and how it prints them. */
struct Figure
{
    const char *name;
    std::vector<ExperimentJob> jobs;
    Render render;
};

std::vector<RunResult>
toRuns(std::vector<ExperimentOutcome> &outcomes)
{
    std::vector<RunResult> runs;
    runs.reserve(outcomes.size());
    for (ExperimentOutcome &o : outcomes)
        runs.push_back(RunResult{std::move(o.stats), o.isFloat});
    return runs;
}

void
renderFig7(std::ostream &os, const std::vector<RunResult> &runs)
{
    printFig7(os, runs);
    std::uint64_t pnp_total = 0;
    std::uint64_t pnp_mem = 0;
    for (const auto &run : runs) {
        pnp_total += run.stats.nodes.count(NodeClass::PropPredUnp);
        pnp_mem += run.stats.nodes.count(NodeClass::PropPredUnp,
                                         OpCategory::Load) +
                   run.stats.nodes.count(NodeClass::PropPredUnp,
                                         OpCategory::Store);
    }
    os << "p,n->p nodes that are memory instructions: "
       << (pnp_total == 0 ? 0.0
                          : 100.0 * double(pnp_mem) / double(pnp_total))
       << " %\n\n";
}

void
renderFig8(std::ostream &os, const std::vector<RunResult> &runs)
{
    printFig8(os, runs);
    std::uint64_t pnn_total = 0;
    std::uint64_t pnn_mem = 0;
    std::uint64_t ppn_ctx_total = 0;
    std::uint64_t ppn_ctx_cls = 0;
    for (const auto &run : runs) {
        pnn_total += run.stats.nodes.count(NodeClass::TermPredUnp);
        pnn_mem += run.stats.nodes.count(NodeClass::TermPredUnp,
                                         OpCategory::Load) +
                   run.stats.nodes.count(NodeClass::TermPredUnp,
                                         OpCategory::Store);
        if (run.stats.kind != PredictorKind::Context)
            continue;
        ppn_ctx_total += run.stats.nodes.count(NodeClass::TermPredPred) +
                         run.stats.nodes.count(NodeClass::TermPredImm);
        for (OpCategory cat : {OpCategory::Compare, OpCategory::Logic,
                               OpCategory::Shift, OpCategory::Branch}) {
            ppn_ctx_cls +=
                run.stats.nodes.count(NodeClass::TermPredPred, cat) +
                run.stats.nodes.count(NodeClass::TermPredImm, cat);
        }
    }
    os << "p,n->n nodes that are memory instructions: "
       << (pnn_total == 0 ? 0.0
                          : 100.0 * double(pnn_mem) / double(pnn_total))
       << " %\n";
    os << "context p,{p,i}->n nodes that are compare/logic/"
          "shift/branch: "
       << (ppn_ctx_total == 0
               ? 0.0
               : 100.0 * double(ppn_ctx_cls) / double(ppn_ctx_total))
       << " %\n\n";
}

double
cumulativeAtOrBelow(const std::vector<CumulativePoint> &curve,
                    std::uint64_t hi)
{
    double last = 0.0;
    for (const auto &p : curve) {
        if (p.bucketHigh > hi)
            break;
        last = p.cumulative;
    }
    return last;
}

void
renderFig10(std::ostream &os, const std::vector<RunResult> &runs)
{
    const DpgStats &stats = runs.front().stats;
    printFig10(os, stats);
    os << "generates with longest path <= 8: "
       << 100.0 * cumulativeAtOrBelow(fig10Trees(stats), 8) << " %\n";
    os << "aggregate propagation in trees with longest path "
          ">= 256: "
       << 100.0 * (1.0 - cumulativeAtOrBelow(fig10Aggregate(stats), 128))
       << " %\n\n";
}

void
renderFig11(std::ostream &os, const std::vector<RunResult> &runs)
{
    for (const RunResult &run : runs) {
        printFig11(os, run.stats);
        double lt4 = 0.0;
        for (const auto &p : fig11InfluenceCount(run.stats)) {
            if (p.bucketHigh <= 3)
                lt4 = p.cumulative;
        }
        const std::string &name = run.stats.workload;
        os << name << ": propagates influenced by < 4 generates: "
           << 100.0 * lt4 << " %\n";
        os << name << ": influence sets saturated: "
           << run.stats.paths.saturationEvents << " of "
           << run.stats.paths.propagateElements << "\n\n";
    }
}

void
renderFig12(std::ostream &os, const std::vector<RunResult> &runs)
{
    printFig12(os, runs);
    for (PredictorKind kind : kAllPredictorKinds) {
        std::vector<double> vals;
        for (const auto &run : runs) {
            if (run.stats.kind != kind)
                continue;
            const Log2Histogram &h = run.stats.sequences.histogram();
            std::uint64_t in_range = 0;
            for (unsigned b = 4; b <= 8 && b < h.bucketCount(); ++b)
                in_range += h.bucketWeight(b);
            vals.push_back(100.0 * double(in_range) /
                           double(run.stats.dynInstrs));
        }
        os << "instructions in predictable sequences of length 9-256 ("
           << predictorName(kind) << "): " << arithmeticMean(vals)
           << " %\n";
    }
    os << "\n";
}

void
renderFig13(std::ostream &os, const std::vector<RunResult> &runs)
{
    printFig13(os, runs);
    for (PredictorKind kind : kAllPredictorKinds) {
        std::vector<double> prop_pct;
        std::vector<double> mis_pred_inputs_pct;
        std::vector<double> gshare_acc;
        for (const auto &run : runs) {
            if (run.stats.kind != kind)
                continue;
            const BranchStats &b = run.stats.branches;
            if (b.total() == 0)
                continue;
            prop_pct.push_back(100.0 * double(b.propagates()) /
                               double(b.total()));
            if (b.mispredicted() > 0) {
                mis_pred_inputs_pct.push_back(
                    100.0 * double(b.mispredictedWithPredictableInputs()) /
                    double(b.mispredicted()));
            }
            gshare_acc.push_back(100.0 * run.stats.gshareAccuracy);
        }
        os << predictorName(kind)
           << ": branches propagating: " << arithmeticMean(prop_pct)
           << " %; mispredictions with all-predictable inputs: "
           << arithmeticMean(mis_pred_inputs_pct)
           << " %; gshare accuracy: " << arithmeticMean(gshare_acc)
           << " %\n";
    }
    os << "\n";
}

/** One engine plus every driver's cell list, built as a user would. */
struct Suite
{
    std::unique_ptr<ExperimentEngine> engine;
    std::vector<Figure> figures;
    double assembleSec = 0.0;
    unsigned programs = 0;
};

Suite
setUpSuite(std::uint64_t budget, std::uint64_t seed)
{
    obs::Span span("bench.setup", "bench");
    Suite s;
    EngineOptions eo;
    eo.threads = 4;
    eo.sample = SampleOptions{};
    s.engine = std::make_unique<ExperimentEngine>(eo);
    ExperimentEngine &engine = *s.engine;

    const std::vector<PredictorKind> all(std::begin(kAllPredictorKinds),
                                         std::end(kAllPredictorKinds));
    auto matrix = [&](const std::vector<Workload> &workloads,
                      const std::vector<PredictorKind> &kinds,
                      bool influence) {
        std::vector<ExperimentJob> jobs;
        for (const Workload &w : workloads) {
            for (PredictorKind kind : kinds) {
                ExperimentConfig config;
                config.maxInstrs = budget;
                config.dpg.kind = kind;
                config.dpg.trackInfluence = influence;
                jobs.push_back(engine.makeJob(w, config, seed));
                s.assembleSec += jobs.back().assembleSec;
                s.programs += jobs.back().assembleSec > 0.0;
            }
        }
        return jobs;
    };
    auto context = [&](std::vector<const char *> names) {
        std::vector<Workload> ws;
        for (const char *n : names)
            ws.push_back(findWorkload(n));
        return matrix(ws, {PredictorKind::Context}, true);
    };

    const std::vector<Workload> &every = allWorkloads();
    const std::vector<Workload> ints = integerWorkloads();
    s.figures = {
        {"table1", matrix(every, {PredictorKind::LastValue}, false),
         printTable1},
        {"fig5", matrix(every, all, false), printFig5},
        {"fig6", matrix(every, all, false), printFig6},
        {"fig7", matrix(every, all, false), renderFig7},
        {"fig8", matrix(every, all, false), renderFig8},
        {"fig9", matrix(ints, all, true), printFig9},
        {"fig10", context({"gcc"}), renderFig10},
        {"fig11", context({"compress", "go", "gcc"}), renderFig11},
        {"fig12", matrix(ints, all, false), renderFig12},
        {"fig13", matrix(ints, all, false), renderFig13},
    };
    return s;
}

} // namespace

Result
runPaperSuite(const Options &opts)
{
    Result r;
    const std::uint64_t budget = opts.tiny ? 200'000 : 4'000'000;
    const std::uint64_t seed = inputSeed(opts.seed);

    // Set-up: engine construction, assembly of the twelve programs and
    // input generation for every cell, repeated and reported as the
    // median; the last set-up is the one measured.
    std::vector<double> setups;
    Suite suite;
    while (moreSetups(setups)) {
        const auto t0 = Clock::now();
        Suite next = setUpSuite(budget, seed);
        setups.push_back(secondsSince(t0));
        suite = std::move(next);
    }
    ExperimentEngine &engine = *suite.engine;

    // Whole passes over the ten figures until the time is spent; a
    // pass starts only when it is expected to finish in time.
    std::vector<double> passWall;
    std::vector<double> cellMs;
    std::vector<double> renderMs;
    std::string text;
    bool textStable = true;
    std::vector<std::vector<DpgStats>> lastStats;
    std::size_t lastPassHistory = 0;
    const auto start = Clock::now();
    do {
        obs::Span span("bench.paper_pass", "bench");
        lastPassHistory = engine.history().size();
        std::ostringstream os;
        lastStats.clear();
        double render = 0.0;
        const auto p0 = Clock::now();
        for (Figure &fig : suite.figures) {
            // A cell's latency runs from its figure's submission until
            // its result, and every result before it, is in hand.
            const auto t0 = Clock::now();
            std::vector<ExperimentOutcome> outcomes;
            {
                obs::Span run_span("bench.engine_batch", "bench");
                for (RequestHandle &h : engine.submitAll(fig.jobs)) {
                    outcomes.push_back(h.wait());
                    cellMs.push_back(1e3 * secondsSince(t0));
                }
            }
            const auto t1 = Clock::now();
            std::vector<RunResult> runs = toRuns(outcomes);
            {
                obs::Span render_span("bench.render", "bench");
                fig.render(os, runs);
            }
            render += secondsSince(t1);
            std::vector<DpgStats> stats;
            for (RunResult &run : runs)
                stats.push_back(std::move(run.stats));
            lastStats.push_back(std::move(stats));
        }
        passWall.push_back(secondsSince(p0));
        renderMs.push_back(1e3 * render);
        if (text.empty())
            text = os.str();
        else
            textStable &= text == os.str();
    } while (secondsSince(start) + passWall.back() <= opts.seconds);
    const double rss = peakRssMb();
    const double measured = secondsSince(start);

    r.set("setup_s", median(setups), "s");
    r.set("wall_s", median(passWall), "s");
    r.set("req_p50_ms", percentile(cellMs, 0.5), "ms");
    r.set("req_p95_ms", percentile(cellMs, 0.95), "ms");
    r.set("req_per_s", double(cellMs.size()) / measured, "1/s");
    r.set("peak_rss_mb", rss, "MB");
    std::cerr << "paper_suite: " << passWall.size() << " pass(es), "
              << cellMs.size() << " cell requests\n";

    // Output checks, outside every timed section.
    r.check(textStable);
    if (!opts.digestOut.empty()) {
        std::ofstream out(opts.digestOut, std::ios::binary);
        out << text;
        r.check(bool(out));
    }
    std::mt19937_64 pick(opts.seed ^ 0x70a9e5u);
    std::vector<std::pair<std::size_t, std::size_t>> sample;
    for (int i = 0; i < (opts.tiny ? 1 : 2); ++i) {
        const std::size_t f = pick() % suite.figures.size();
        sample.emplace_back(f, pick() % suite.figures[f].jobs.size());
    }
    std::vector<std::string> want(sample.size());
    {
        std::vector<std::jthread> workers;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            workers.emplace_back([&, i] {
                const ExperimentJob &job =
                    suite.figures[sample[i].first].jobs[sample[i].second];
                want[i] = verify::fingerprintJson(
                    "workload:" + job.program->name, seed,
                    {runModel(*job.program, *job.input, job.config)});
            });
        }
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const DpgStats &got =
            lastStats[sample[i].first][sample[i].second];
        const bool ok = verify::fingerprintJson("workload:" + got.workload,
                                                seed, {got}) == want[i];
        if (!ok) {
            std::cerr << "paper_suite: cell " << got.workload << "/"
                      << predictorName(got.kind) << " of "
                      << suite.figures[sample[i].first].name
                      << " differs from runModel\n";
        }
        r.check(ok);
    }

    if (!opts.layers)
        return r;

    r.set("asmr.assemble_ms", 1e3 * suite.assembleSec, "ms");
    r.set("asmr.programs", suite.programs, "count");
    r.set("report.render_ms", median(renderMs), "ms");

    // Bare simulation of the suite's streams (Table 1 has one cell per
    // workload), then the capture overhead over the simulations the
    // last pass actually ran.
    std::vector<SimStream> streams;
    std::vector<std::string> names;
    for (const ExperimentJob &job : suite.figures.front().jobs) {
        streams.push_back({job.program.get(), job.input.get(), budget});
        names.push_back(job.program->name);
    }
    const std::vector<double> bare = reportSimLayer(r, streams);
    double bareSec = 0.0;
    const auto history = engine.history();
    for (std::size_t i = lastPassHistory; i < history.size(); ++i) {
        if (history[i].timing.captureShared)
            continue;
        for (std::size_t s = 0; s < names.size(); ++s) {
            if (names[s] == history[i].workload)
                bareSec += bare[s];
        }
    }
    reportRunnerLayer(r, engine, lastPassHistory, bareSec);
    reportRoleSplit(r, opts.tiny);
    probeSampleLayer(r);
    probeServeLayer(r, opts);
    return r;
}

} // namespace ppm::perfbench
