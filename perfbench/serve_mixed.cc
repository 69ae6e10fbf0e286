/**
 * @file
 * serve_mixed: seeded mixed traffic from 4 closed-loop clients, each
 * on its own connection, to an in-process serve::Server over a Unix
 * socket. Per session a fixed count of requests:
 *
 *   70% analyze   each of the 12 workloads 7 times, predictor all, a
 *                 300k budget, input seed from a 3-seed pool (keys
 *                 repeat, but the distinct captures outgrow the 64 MiB
 *                 retention tier)
 *   17.5% family  each scenario family 3 times with a fresh seed, so
 *                 every such request brings a program to assemble
 *   12.5% trace   tests/data/sample_branch.trace inline
 *
 * Every response's fingerprint is checked, outside the timed
 * sessions, against the batch engine's fingerprint for the same cell.
 */

#include <atomic>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "asmr/assembler.hh"
#include "bench.hh"
#include "obs/obs.hh"
#include "runner/trace_import.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/mini_json.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"

namespace ppm::perfbench {

namespace {

constexpr const char *kTracePath = "tests/data/sample_branch.trace";
constexpr const char *kTraceName = "sample_branch.trace";

/** The canonical fingerprint bytes embedded in an ok response. */
std::string
responseFingerprint(const std::string &response)
{
    const std::string head = "\"fingerprint\":";
    const std::size_t at = response.find(head);
    const std::size_t end = response.rfind(",\"timing\":{");
    if (at == std::string::npos || end == std::string::npos || end < at)
        return {};
    return response.substr(at + head.size(), end - at - head.size());
}

bool
responseIs(const std::string &response, const char *status)
{
    try {
        const JsonValue doc = parseJson(response);
        const JsonValue *s = doc.find("status");
        return s && s->isString() && s->str == status;
    } catch (const JsonError &) {
        return false;
    }
}

/** The daemon's reported queue/simulate/analyze seconds, summed. */
struct Timing
{
    double queueSec = 0.0;
    double workSec = 0.0;
};

Timing
responseTiming(const std::string &response)
{
    Timing t;
    const JsonValue doc = parseJson(response);
    const JsonValue &timing = doc.at("timing");
    t.queueSec = timing.at("queue_sec").number;
    t.workSec = t.queueSec + timing.at("simulate_sec").number +
                timing.at("analyze_sec").number;
    return t;
}

/** Inputs of one run: the seed pool, the budget and the trace text. */
struct Traffic
{
    std::vector<std::uint64_t> pool;
    std::uint64_t budget = 0;
    std::size_t perSession = 0;
    std::string records;
};

/** The ppm-serve-v1 line for @p q (@p budget caps workload cells). */
std::string
requestLine(const ServedRequest &q, std::uint64_t budget,
            const std::string &records)
{
    std::string line = "{\"schema\":\"ppm-serve-v1\",\"kind\":\"";
    if (q.kind == ServedRequest::Trace) {
        return line + "trace\",\"name\":\"" + q.name +
               "\",\"records\":\"" + serve::jsonEscape(records) + "\"}";
    }
    line += "analyze\",\"predictor\":\"all\",\"seed\":" +
            std::to_string(q.seed);
    if (q.kind == ServedRequest::Family)
        return line + ",\"family\":\"" + q.name + "\"}";
    return line + ",\"workload\":\"" + q.name + "\",\"max_instrs\":" +
           std::to_string(budget) + "}";
}

/**
 * The seeded request sequence of session @p session. Every full-size
 * session carries the same mix — each workload 7 times, each family 3
 * times, 15 traces per 120 requests — in a seeded order with seeded
 * input seeds, so sessions differ in order and keys but not in kind
 * of work. A smaller session is a seeded sample of that mix.
 */
std::vector<ServedRequest>
makeSession(const Traffic &tr, std::uint64_t seed, std::size_t session)
{
    std::mt19937_64 rng(seed * 1000003u + session);
    std::vector<ServedRequest> reqs;
    auto add = [&](ServedRequest::Kind kind, const std::string &name,
                   std::uint64_t s) {
        ServedRequest q{kind, name, s};
        q.line = requestLine(q, tr.budget, tr.records);
        reqs.push_back(std::move(q));
    };
    while (reqs.size() < tr.perSession) {
        for (const Workload &w : allWorkloads()) {
            for (int k = 0; k < 7; ++k) {
                add(ServedRequest::Analyze, w.name,
                    tr.pool[rng() % tr.pool.size()]);
            }
        }
        for (const auto &f : verify::allFamilies()) {
            for (int k = 0; k < 3; ++k)
                add(ServedRequest::Family, f.name, 1 + rng() % 0x7fffffffu);
        }
        for (int k = 0; k < 15; ++k)
            add(ServedRequest::Trace, kTraceName, 0);
    }
    for (std::size_t i = reqs.size(); i > 1; --i)
        std::swap(reqs[i - 1], reqs[rng() % i]);
    reqs.resize(tr.perSession);
    return reqs;
}

/** One daemon plus its connected clients, as a user sets them up. */
struct Daemon
{
    std::unique_ptr<serve::Server> server;
    std::vector<serve::Client> clients;

    void
    stop()
    {
        clients.clear();
        if (server) {
            server->requestStop();
            server->serveUntilStopped();
            server.reset();
        }
    }
};

Daemon
startDaemon(const std::string &path, unsigned clients)
{
    obs::Span span("bench.setup", "bench");
    serve::ServerOptions so;
    so.unixPath = path;
    so.engine.threads = 4;
    so.engine.sample = SampleOptions{};
    Daemon d;
    d.server = std::make_unique<serve::Server>(so);
    d.server->start();
    for (unsigned c = 0; c < clients; ++c)
        d.clients.push_back(serve::Client::connectUnix(path));
    return d;
}

std::vector<DpgStats>
traceRuns(const std::string &records)
{
    std::istringstream in(records);
    const ImportedTrace trace = parseBranchTrace(in, kTraceName);
    ExecProfile profile(trace.program.textSize());
    replayImported(trace, profile);
    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        DpgConfig cfg;
        cfg.kind = kind;
        DpgAnalyzer analyzer(trace.program, profile, cfg);
        replayImported(trace, analyzer);
        runs.push_back(analyzer.takeStats());
    }
    return runs;
}

/**
 * Batch-engine fingerprints of every distinct cell in @p reqs, keyed
 * by ServedRequest::key(); @p runsOut receives the workload cells'
 * results for the report layer.
 */
std::map<std::string, std::string>
referenceFingerprints(const std::vector<ServedRequest> &reqs,
                      const Traffic &tr, std::vector<RunResult> &runsOut)
{
    EngineOptions eo;
    eo.threads = 4;
    eo.sample = SampleOptions{};
    ExperimentEngine batch(eo);

    std::map<std::string, std::string> fps;
    std::vector<const ServedRequest *> cells;
    std::vector<ExperimentJob> jobs;
    for (const ServedRequest &q : reqs) {
        if (!fps.emplace(q.key(), "").second)
            continue;
        if (q.kind == ServedRequest::Trace) {
            fps[q.key()] = verify::fingerprintJson(q.label(), q.seed,
                                                   traceRuns(tr.records));
            continue;
        }
        cells.push_back(&q);
        for (PredictorKind kind : kAllPredictorKinds) {
            ExperimentConfig config;
            config.dpg.kind = kind;
            if (q.kind == ServedRequest::Analyze) {
                config.maxInstrs = tr.budget;
                jobs.push_back(
                    batch.makeJob(findWorkload(q.name), config, q.seed));
                continue;
            }
            const auto &f = verify::findFamily(q.name);
            config.maxInstrs = f.instrBound;
            ExperimentJob job;
            job.program = batch.cache().program(q.programName(),
                                                f.generate(q.seed));
            job.input = std::make_shared<const std::vector<Value>>();
            job.config = config;
            jobs.push_back(std::move(job));
        }
    }
    std::vector<ExperimentOutcome> outcomes = batch.run(jobs);

    const std::size_t lanes = std::size(kAllPredictorKinds);
    for (std::size_t k = 0; k < cells.size(); ++k) {
        std::vector<DpgStats> runs;
        for (std::size_t l = 0; l < lanes; ++l) {
            ExperimentOutcome &o = outcomes[k * lanes + l];
            if (cells[k]->kind == ServedRequest::Analyze)
                runsOut.push_back(RunResult{o.stats, o.isFloat});
            runs.push_back(std::move(o.stats));
        }
        fps[cells[k]->key()] =
            verify::fingerprintJson(cells[k]->label(), cells[k]->seed, runs);
    }
    return fps;
}

} // namespace

void
serveSession(std::vector<serve::Client> &clients,
             std::vector<ServedRequest> &reqs)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (serve::Client &client : clients) {
        threads.emplace_back([&reqs, &next, &client] {
            for (;;) {
                const std::size_t i = next++;
                if (i >= reqs.size())
                    return;
                ServedRequest &q = reqs[i];
                const auto t0 = Clock::now();
                try {
                    client.sendLine(q.line);
                    q.response = client.recvLine().value_or("");
                } catch (const std::exception &e) {
                    std::cerr << "serve_mixed: request " << i << ": "
                              << e.what() << "\n";
                    q.response.clear();
                }
                q.roundTripSec = secondsSince(t0);
            }
        });
    }
}

void
reportServeLayer(Result &r, const std::vector<ServedRequest> &reqs,
                 std::uint64_t overloaded)
{
    std::vector<double> overheadMs;
    std::vector<double> queueMs;
    std::vector<double> traceMs;
    for (const ServedRequest &q : reqs) {
        if (!responseIs(q.response, "ok"))
            continue;
        if (q.kind == ServedRequest::Trace) {
            traceMs.push_back(1e3 * q.roundTripSec);
            continue;
        }
        const Timing t = responseTiming(q.response);
        overheadMs.push_back(1e3 * (q.roundTripSec - t.workSec));
        queueMs.push_back(1e3 * t.queueSec);
    }
    r.set("serve.overhead_ms_p50", percentile(overheadMs, 0.5), "ms");
    r.set("serve.queue_ms_p95", percentile(queueMs, 0.95), "ms");
    r.set("serve.trace_ms_p50", percentile(traceMs, 0.5), "ms");
    r.set("serve.overloaded", double(overloaded), "count");
}

void
probeServeLayer(Result &r, const Options &opts)
{
    obs::Span span("bench.serve_probe", "bench");
    const std::string records = slurpFile(kTracePath);
    std::vector<ServedRequest> reqs;
    for (const char *w : {"compress", "gcc", "li"}) {
        reqs.push_back({ServedRequest::Analyze, w, 1});
        reqs.push_back({ServedRequest::Analyze, w, 2});
        reqs.push_back({ServedRequest::Trace, kTraceName, 0});
    }
    for (ServedRequest &q : reqs)
        q.line = requestLine(q, 100'000, records);
    Daemon d = startDaemon(opts.workDir + "/probe.sock", 1);
    serveSession(d.clients, reqs);
    const std::uint64_t overloaded = d.server->stats().overloaded;
    d.stop();
    for (const ServedRequest &q : reqs)
        r.check(responseIs(q.response, "ok"));
    reportServeLayer(r, reqs, overloaded);
}

Result
runServeMixed(const Options &opts)
{
    Result r;
    const std::string sock = opts.workDir + "/serve.sock";
    constexpr unsigned kClients = 4;

    // Set-up: request generation (seeded, so the program sees only
    // the generated lines), server construction + bind, and the
    // clients' connects; repeated, median reported.
    Traffic tr;
    std::vector<double> setups;
    Daemon daemon;
    std::vector<ServedRequest> first;
    while (moreSetups(setups)) {
        daemon.stop();
        const auto t0 = Clock::now();
        tr.records = slurpFile(kTracePath);
        tr.budget = opts.tiny ? 50'000 : 300'000;
        tr.perSession = opts.tiny ? 24 : 120;
        tr.pool.clear();
        for (std::uint64_t k = 0; k < 3; ++k)
            tr.pool.push_back(1 + ((inputSeed(opts.seed) + k) & 0x7ffffffe));
        first = makeSession(tr, opts.seed, 0);
        daemon = startDaemon(sock, kClients);
        setups.push_back(secondsSince(t0));
    }
    serve::Server &server = *daemon.server;
    ExperimentEngine &engine = server.engine();

    // Sessions of the fixed request count until the time is spent; a
    // further session starts only when it is expected to finish in
    // time.
    std::vector<ServedRequest> done;
    std::vector<double> sessionWall;
    std::size_t lastSessionHistory = 0;
    std::size_t lastSessionStart = 0;
    double active = 0.0;
    const auto start = Clock::now();
    for (std::size_t s = 0;; ++s) {
        std::vector<ServedRequest> reqs =
            s == 0 ? std::move(first) : makeSession(tr, opts.seed, s);
        lastSessionHistory = engine.history().size();
        lastSessionStart = done.size();
        const auto t0 = Clock::now();
        {
            obs::Span span("bench.serve_session", "bench");
            serveSession(daemon.clients, reqs);
        }
        sessionWall.push_back(secondsSince(t0));
        active += sessionWall.back();
        done.insert(done.end(), reqs.begin(), reqs.end());
        // At least two sessions, so p95 has ten samples above it.
        if (s >= 1 &&
            secondsSince(start) + sessionWall.back() > opts.seconds)
            break;
    }
    const double rss = peakRssMb();

    std::vector<double> rttMs;
    for (const ServedRequest &q : done)
        rttMs.push_back(1e3 * q.roundTripSec);
    r.set("setup_s", median(setups), "s");
    r.set("wall_s", median(sessionWall), "s");
    r.set("req_p50_ms", percentile(rttMs, 0.5), "ms");
    r.set("req_p95_ms", percentile(rttMs, 0.95), "ms");
    r.set("req_per_s", double(done.size()) / active, "1/s");
    r.set("peak_rss_mb", rss, "MB");
    std::cerr << "serve_mixed: " << sessionWall.size() << " session(s), "
              << done.size() << " requests\n";

    // Output checks: every response ok and byte-equal to the batch
    // engine's fingerprint of the same cell.
    const std::uint64_t overloaded = server.stats().overloaded;
    std::vector<RunResult> refRuns;
    const std::map<std::string, std::string> ref =
        referenceFingerprints(done, tr, refRuns);
    for (const ServedRequest &q : done) {
        const bool ok = responseIs(q.response, "ok") &&
                        responseFingerprint(q.response) == ref.at(q.key());
        if (!ok)
            std::cerr << "serve_mixed: " << q.key() << " failed: "
                      << q.response.substr(0, 200) << "\n";
        r.check(ok);
    }

    if (!opts.layers) {
        daemon.stop();
        return r;
    }

    double assembleSec = 0.0;
    unsigned programs = 0;
    for (const auto &run : engine.history()) {
        assembleSec += run.timing.assembleSec;
        programs += run.timing.assembleSec > 0.0;
    }
    r.set("asmr.assemble_ms", 1e3 * assembleSec, "ms");
    r.set("asmr.programs", programs, "count");

    // Bare simulation of the last session's distinct streams; a
    // workload's pool seeds share its name in the history, so its
    // capture overhead is taken against their mean.
    std::map<std::string, std::pair<double, unsigned>> bareByName;
    {
        std::vector<Program> progs;
        std::vector<std::vector<Value>> inputs;
        std::vector<std::uint64_t> budgets;
        std::vector<std::string> names;
        std::map<std::string, bool> seen;
        for (std::size_t i = lastSessionStart; i < done.size(); ++i) {
            const ServedRequest &q = done[i];
            if (q.kind == ServedRequest::Trace || seen[q.key()])
                continue;
            seen[q.key()] = true;
            names.push_back(q.programName());
            if (q.kind == ServedRequest::Analyze) {
                const Workload &w = findWorkload(q.name);
                progs.push_back(assemble(w.source, w.name));
                inputs.push_back(w.makeInput(q.seed));
                budgets.push_back(tr.budget);
            } else {
                const auto &f = verify::findFamily(q.name);
                progs.push_back(assemble(f.generate(q.seed), names.back()));
                inputs.emplace_back();
                budgets.push_back(f.instrBound);
            }
        }
        std::vector<SimStream> streams;
        for (std::size_t i = 0; i < progs.size(); ++i)
            streams.push_back({&progs[i], &inputs[i], budgets[i]});
        const std::vector<double> secs = reportSimLayer(r, streams);
        for (std::size_t i = 0; i < secs.size(); ++i) {
            bareByName[names[i]].first += secs[i];
            ++bareByName[names[i]].second;
        }
    }
    double bareSec = 0.0;
    const auto history = engine.history();
    for (std::size_t i = lastSessionHistory; i < history.size(); ++i) {
        const auto it = bareByName.find(history[i].workload);
        if (!history[i].timing.captureShared && it != bareByName.end())
            bareSec += it->second.first / it->second.second;
    }
    reportRunnerLayer(r, engine, lastSessionHistory, bareSec);
    reportServeLayer(r,
                     std::vector<ServedRequest>(done.begin() +
                                                    lastSessionStart,
                                                done.end()),
                     overloaded);
    daemon.stop();

    {
        std::ostringstream sink;
        const auto t0 = Clock::now();
        renderFigures(sink, refRuns);
        r.set("report.render_ms", 1e3 * secondsSince(t0), "ms");
    }
    reportRoleSplit(r, opts.tiny);
    probeSampleLayer(r);
    return r;
}

} // namespace ppm::perfbench
