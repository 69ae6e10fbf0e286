/**
 * @file
 * Serve-layer tests: ppm-serve-v1 request validation, an in-process
 * daemon on a Unix socket serving real requests, byte-identity of
 * served fingerprints against the batch engine path and the
 * per-predictor imported-trace replay, admission
 * control, per-request budgets, concurrent clients, and
 * shutdown/drain.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "runner/engine.hh"
#include "runner/trace_import.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/profiler.hh"
#include "support/mini_json.hh"
#include "verify/fingerprint.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

using serve::Client;
using serve::Server;
using serve::ServerOptions;

constexpr std::uint64_t kBudget = 60'000;

/** A per-test Unix socket path under /tmp (sun_path is short). */
std::string
socketPath(const char *tag)
{
    return "/tmp/ppm_serve_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

ServerOptions
testOptions(const std::string &path)
{
    ServerOptions opts;
    opts.unixPath = path;
    opts.engine.threads = 2;
    return opts;
}

std::string
analyzeWorkloadRequest(const std::string &id,
                       const std::string &workload,
                       std::uint64_t maxInstrs)
{
    return "{\"schema\":\"ppm-serve-v1\",\"kind\":\"analyze\","
           "\"id\":\"" +
           id + "\",\"workload\":\"" + workload +
           "\",\"max_instrs\":" + std::to_string(maxInstrs) + "}";
}

/** Parse a response and return its "status". */
std::string
statusOf(const std::string &line)
{
    const JsonValue doc = parseJson(line);
    return doc.at("status").str;
}

/** A small deterministic branch-record text (trace intake). */
std::string
sampleRecords()
{
    std::string out;
    for (int i = 0; i < 96; ++i) {
        out += i % 3 == 0 ? "0x400 T\n" : "0x400 N\n";
        out += i % 7 < 3 ? "0x404 T\n" : "0x404 N\n";
        out += "0x40c T\n";
    }
    return out;
}

TEST(ServeProtocol, ValidatesRequests)
{
    const auto errsFor = [](const std::string &json) {
        return serve::validateRequest(parseJson(json));
    };

    EXPECT_TRUE(errsFor("{\"schema\":\"ppm-serve-v1\","
                        "\"kind\":\"ping\"}")
                    .empty());
    EXPECT_TRUE(
        errsFor(analyzeWorkloadRequest("r1", "compress", 1000))
            .empty());

    // Wrong/missing schema and kind.
    EXPECT_FALSE(errsFor("{\"kind\":\"ping\"}").empty());
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v2\","
                         "\"kind\":\"ping\"}")
                     .empty());
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"explode\"}")
                     .empty());
    EXPECT_FALSE(errsFor("[1,2,3]").empty());

    // Analyze intake must be exactly one of workload/family/source.
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"analyze\"}")
                     .empty());
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"analyze\","
                         "\"workload\":\"compress\","
                         "\"family\":\"hash-churn\"}")
                     .empty());

    // Typed members.
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"analyze\","
                         "\"workload\":\"compress\","
                         "\"max_instrs\":-5}")
                     .empty());
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"analyze\","
                         "\"workload\":\"compress\","
                         "\"predictor\":\"quantum\"}")
                     .empty());
    EXPECT_FALSE(errsFor("{\"schema\":\"ppm-serve-v1\","
                         "\"kind\":\"trace\"}")
                     .empty());

    // A member the request's kind and intake do not read is refused,
    // by name.
    const std::string trace = "{\"schema\":\"ppm-serve-v1\","
                              "\"kind\":\"trace\",\"records\":\"0x4 T\",";
    const std::string analyze = "{\"schema\":\"ppm-serve-v1\","
                                "\"kind\":\"analyze\",";
    for (const auto &[json, member] :
         std::vector<std::pair<std::string, std::string>>{
             {trace + "\"workload\":\"gcc\"}", "\"workload\""},
             {trace + "\"seed\":9}", "\"seed\""},
             {analyze + "\"source\":\"halt\",\"seed\":7}", "\"seed\""},
             {analyze + "\"workload\":\"gcc\",\"name\":\"n\","
                        "\"records\":\"0x4 T\"}",
              "\"records\""},
             {"{\"schema\":\"ppm-serve-v1\",\"kind\":\"ping\","
              "\"workload\":\"gcc\"}",
              "\"workload\""}}) {
        const auto errors = errsFor(json);
        ASSERT_FALSE(errors.empty()) << json;
        EXPECT_NE(errors[0].find(member), std::string::npos)
            << errors[0];
    }
}

// Past 2^53 a JSON number no longer names one integer, and past 2^64
// its cast to std::uint64_t is undefined: both are refused by name.
TEST(ServeProtocol, RefusesIntegersPastDoublePrecision)
{
    const std::string head = "{\"schema\":\"ppm-serve-v1\","
                             "\"kind\":\"analyze\","
                             "\"workload\":\"compress\",";
    for (const char *bad : {"\"max_instrs\":1e300",
                            "\"seed\":18446744073709551616",
                            "\"max_instrs\":9007199254740994"}) {
        const auto errors =
            serve::validateRequest(parseJson(head + bad + "}"));
        ASSERT_EQ(errors.size(), 1u) << bad;
        const std::string field =
            std::string(bad).substr(0, std::string(bad).find(':'));
        EXPECT_NE(errors[0].find(field), std::string::npos)
            << errors[0];
    }

    const JsonValue edge = parseJson(
        head + "\"seed\":9007199254740992,"
               "\"max_instrs\":9007199254740992}");
    EXPECT_TRUE(serve::validateRequest(edge).empty());
    const serve::ServeRequest req = serve::parseRequest(edge);
    EXPECT_EQ(req.intake.seed, 1ULL << 53);
    EXPECT_EQ(req.maxInstrs, 1ULL << 53);
}

TEST(ServeProtocol, ResponseOkAggregatesAcrossCountBatches)
{
    // The per-response predicate `ppm client --count N` folds: one
    // failing response in a batch must flip the whole batch (and the
    // process exit code) to failure.
    EXPECT_TRUE(serve::responseOk(serve::pongResponse("r1")));
    EXPECT_FALSE(
        serve::responseOk(serve::errorResponse("r2", "boom")));
    EXPECT_FALSE(serve::responseOk(
        serve::overloadedResponse("r3", "busy")));
    EXPECT_FALSE(serve::responseOk("{\"id\":\"r4\"}")); // No status.
    EXPECT_FALSE(serve::responseOk("not json at all"));
    EXPECT_FALSE(serve::responseOk(""));

    // 1 failure among N-1 successes: the fold is failure-dominant.
    std::vector<std::string> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(serve::pongResponse("b" + std::to_string(i)));
    batch[5] = serve::errorResponse("b5", "unknown workload");
    bool allOk = true;
    std::size_t okCount = 0;
    for (const std::string &line : batch) {
        if (serve::responseOk(line))
            ++okCount;
        else
            allOk = false;
    }
    EXPECT_FALSE(allOk);
    EXPECT_EQ(okCount, 7u);
}

TEST(ServeProtocol, ResponseBytesArePinned)
{
    serve::ResponseTiming timing;
    timing.queueSec = 0.125;
    timing.simulateSec = 1.5;
    timing.analyzeSec = 2.0000014;
    timing.dynInstrs = 12345;
    timing.captureShared = true;
    EXPECT_EQ(
        serve::okResponse("r1", "{\"schema\":\"ppm-fingerprint-v1\"}",
                          timing),
        "{\"schema\":\"ppm-serve-v1\",\"id\":\"r1\",\"status\":\"ok\","
        "\"fingerprint\":{\"schema\":\"ppm-fingerprint-v1\"},\"timing"
        "\":{\"queue_sec\":0.125000,\"simulate_sec\":1.500000,\"analyz"
        "e_sec\":2.000001,\"dyn_instrs\":12345,\"capture_shared\":true"
        ",\"fused\":false}}");

    // An id holding a quote, a backslash and a control byte.
    const std::string id = "q\"\\\x01z";
    EXPECT_EQ(
        serve::errorResponse(id, "bad \"x\"\n\\"),
        "{\"schema\":\"ppm-serve-v1\",\"id\":\"q\\\"\\\\\\u0001z\",\"s"
        "tatus\":\"error\",\"error\":\"bad \\\"x\\\"\\n\\\\\"}");
    EXPECT_EQ(
        serve::overloadedResponse(id, "2 in flight\t(limit 2)"),
        "{\"schema\":\"ppm-serve-v1\",\"id\":\"q\\\"\\\\\\u0001z\",\"s"
        "tatus\":\"overloaded\",\"error\":\"2 in flight\\t(limit 2)\"}");
    EXPECT_EQ(
        serve::pongResponse(id),
        "{\"schema\":\"ppm-serve-v1\",\"id\":\"q\\\"\\\\\\u0001z\",\"s"
        "tatus\":\"ok\"}");
    EXPECT_EQ(
        serve::statsResponse(id, "{\"connections\":3}"),
        "{\"schema\":\"ppm-serve-v1\",\"id\":\"q\\\"\\\\\\u0001z\",\"s"
        "tatus\":\"ok\",\"stats\":{\"connections\":3}}");
}

TEST(ServeDaemon, ServedFingerprintIsByteIdenticalToBatchPath)
{
    const std::string path = socketPath("ident");
    Server server(testOptions(path));
    server.start();

    // The batch-path reference: same workload, same budget, all
    // three predictors through a fresh engine's run().
    EngineOptions eopts;
    eopts.threads = 2;
    ExperimentEngine reference(eopts);
    const Workload &w = findWorkload("compress");
    ExperimentConfig base;
    base.maxInstrs = kBudget;
    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentConfig config = base;
        config.dpg.kind = kind;
        jobs.push_back(reference.makeJob(w, config));
    }
    std::vector<DpgStats> runs;
    for (auto &outcome : reference.run(jobs))
        runs.push_back(std::move(outcome.stats));
    const std::string expected = verify::fingerprintJson(
        "workload:compress", kDefaultWorkloadSeed, runs);

    Client client = Client::connectUnix(path);
    client.sendLine(analyzeWorkloadRequest("r1", "compress",
                                           kBudget));
    const auto response = client.recvLine(60'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(statusOf(*response), "ok");

    // The served "fingerprint" member embeds the canonical rendering
    // verbatim, so plain substring search IS the byte-identity check.
    EXPECT_NE(response->find("\"fingerprint\":" + expected),
              std::string::npos)
        << "served fingerprint differs from the batch path";

    // A served trace against the per-predictor replay reference: one
    // analyzer per predictor, each fed its own replay of the records.
    const std::string records = sampleRecords();
    std::istringstream in(records);
    const ImportedTrace trace = parseBranchTrace(in, "ident");
    ExecProfile profile(trace.program.textSize());
    replayImported(trace, profile);
    std::vector<DpgStats> traceRuns;
    for (PredictorKind kind : kAllPredictorKinds) {
        DpgConfig config;
        config.kind = kind;
        DpgAnalyzer analyzer(trace.program, profile, config);
        replayImported(trace, analyzer);
        traceRuns.push_back(analyzer.takeStats());
    }
    const std::string traceExpected =
        verify::fingerprintJson("trace:ident", 0, traceRuns);

    client.sendLine("{\"schema\":\"ppm-serve-v1\",\"kind\":\"trace\","
                    "\"id\":\"r2\",\"name\":\"ident\",\"records\":\"" +
                    serve::jsonEscape(records) + "\"}");
    const auto traceResponse = client.recvLine(60'000);
    ASSERT_TRUE(traceResponse.has_value());
    EXPECT_EQ(statusOf(*traceResponse), "ok");
    EXPECT_NE(traceResponse->find("\"fingerprint\":" + traceExpected),
              std::string::npos)
        << "served trace fingerprint differs from the replay reference";

    server.requestStop();
    server.serveUntilStopped();
}

// A served seed is used as given: "seed":0 is input seed 0, not the
// default 0x5eed5eed.
TEST(ServeDaemon, ServedSeedZeroIsInputSeedZero)
{
    const std::string path = socketPath("seed0");
    Server server(testOptions(path));
    server.start();

    EngineOptions eopts;
    eopts.threads = 2;
    ExperimentEngine reference(eopts);
    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentConfig config;
        config.maxInstrs = kBudget;
        config.dpg.kind = kind;
        jobs.push_back(reference.makeJob(findWorkload("gcc"), config, 0));
    }
    std::vector<DpgStats> runs;
    for (auto &outcome : reference.run(jobs))
        runs.push_back(std::move(outcome.stats));
    const std::string expected =
        verify::fingerprintJson("workload:gcc", 0, runs);

    Client client = Client::connectUnix(path);
    client.sendLine("{\"schema\":\"ppm-serve-v1\",\"kind\":\"analyze\","
                    "\"workload\":\"gcc\",\"seed\":0,\"max_instrs\":" +
                    std::to_string(kBudget) + "}");
    const auto response = client.recvLine(60'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("\"fingerprint\":" + expected),
              std::string::npos)
        << *response;

    server.requestStop();
    server.serveUntilStopped();
}

TEST(ServeDaemon, LargeResponseSurvivesTinySendBuffer)
{
    // Partial-write regression: with SO_SNDBUF clamped to the kernel
    // floor on the server side and a tiny-SO_RCVBUF client draining
    // slowly, a ~1 MiB response line takes hundreds of short send()
    // cycles. sendLine() must loop until the frame is complete — a
    // single-shot ::send() here would truncate the line mid-JSON.
    ServerOptions opts;
    opts.port = 0; // TCP loopback: buffer sizes govern the window.
    opts.engine.threads = 1;
    opts.sendBufBytes = 1; // Clamped up to the kernel minimum.
    Server server(opts);
    server.start();
    ASSERT_NE(server.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 1; // Clamped up to the kernel minimum.
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // A ping whose id is echoed verbatim makes the response size
    // (and content) fully deterministic.
    std::string id;
    id.reserve(1 << 20);
    for (std::size_t i = 0; i < (1u << 20); ++i)
        id += static_cast<char>('a' + i % 26);
    const std::string request = "{\"schema\":\"ppm-serve-v1\","
                                "\"kind\":\"ping\",\"id\":\"" +
                                id + "\"}\n";
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n = ::send(fd, request.data() + off,
                                 request.size() - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }

    // Drain slowly in small chunks so the server's send buffer stays
    // full and its completion loop actually cycles.
    std::string line;
    char chunk[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (line.find('\n') == std::string::npos) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "response incomplete after 60s ("
            << line.size() << " bytes)";
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0) << "connection closed mid-response after "
                        << line.size() << " bytes";
        line.append(chunk, static_cast<std::size_t>(n));
        if (line.size() % (64 * 1024) < sizeof chunk)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }
    ::close(fd);

    line.erase(line.find('\n'));
    const JsonValue doc = parseJson(line);
    EXPECT_EQ(doc.at("status").str, "ok");
    EXPECT_EQ(doc.at("id").str, id) << "echoed id corrupted";

    server.requestStop();
    server.serveUntilStopped();
}

TEST(ServeDaemon, SustainsManyConcurrentClients)
{
    const std::string path = socketPath("many");
    ServerOptions opts = testOptions(path);
    opts.maxInflight = 64; // Admit all; this test is about survival.
    Server server(opts);
    server.start();

    // >= 32 concurrent clients with a mixed request diet: built-in
    // workloads (identical cells -> retained-capture hits), fuzz
    // families, and inline branch traces.
    constexpr int kClients = 32;
    const std::string records = sampleRecords();
    std::mutex mu;
    std::vector<std::string> statuses;
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            std::string request;
            if (i % 3 == 0) {
                request = analyzeWorkloadRequest(
                    "c" + std::to_string(i), "compress", kBudget);
            } else if (i % 3 == 1) {
                request =
                    "{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"analyze\",\"id\":\"c" +
                    std::to_string(i) +
                    "\",\"family\":\"branch-corr\",\"seed\":" +
                    std::to_string(1 + i % 2) +
                    ",\"predictor\":\"context\"}";
            } else {
                request = "{\"schema\":\"ppm-serve-v1\","
                          "\"kind\":\"trace\",\"id\":\"c" +
                          std::to_string(i) +
                          "\",\"name\":\"synthetic\","
                          "\"records\":\"" +
                          serve::jsonEscape(records) +
                          "\",\"predictor\":\"context\"}";
            }
            std::string status = "no-response";
            try {
                Client client = Client::connectUnix(path);
                client.sendLine(request);
                if (const auto response = client.recvLine(120'000))
                    status = statusOf(*response);
            } catch (const std::exception &e) {
                status = std::string("exception: ") + e.what();
            }
            std::lock_guard<std::mutex> lock(mu);
            statuses.push_back(status);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kClients));
    for (const std::string &status : statuses)
        EXPECT_EQ(status, "ok");

    // The identical workload cells must have fed the memoization
    // tier: the exported hit-rate is visible through `stats`.
    Client client = Client::connectUnix(path);
    client.sendLine("{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"stats\",\"id\":\"s\"}");
    const auto statsLine = client.recvLine(60'000);
    ASSERT_TRUE(statsLine.has_value());
    const JsonValue doc = parseJson(*statsLine);
    const JsonValue &cache = doc.at("stats").at("cache");
    EXPECT_GT(cache.at("capture_hits").number, 0.0);
    EXPECT_GT(cache.at("hit_rate_pct").number, 0.0);
    EXPECT_EQ(doc.at("stats").at("overloaded").number, 0.0);

    server.requestStop();
    server.serveUntilStopped();
    const serve::ServerStats final = server.stats();
    EXPECT_GE(final.served,
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(final.failed, 0u);
}

TEST(ServeDaemon, AdmissionControlRejectsWhenSaturated)
{
    const std::string path = socketPath("adm");
    ServerOptions opts = testOptions(path);
    opts.maxInflight = 0; // Deterministic: every request is excess.
    Server server(opts);
    server.start();

    Client client = Client::connectUnix(path);
    client.sendLine(analyzeWorkloadRequest("r1", "compress", 1000));
    const auto response = client.recvLine(60'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(statusOf(*response), "overloaded");

    // Control-plane requests are not subject to admission control.
    client.sendLine("{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"ping\"}");
    const auto pong = client.recvLine(60'000);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(statusOf(*pong), "ok");

    server.requestStop();
    server.serveUntilStopped();
    EXPECT_EQ(server.stats().overloaded, 1u);
}

TEST(ServeDaemon, EnforcesPerRequestBudgets)
{
    const std::string path = socketPath("budget");
    ServerOptions opts = testOptions(path);
    opts.maxInstrsCap = 100'000;
    Server server(opts);
    server.start();

    Client client = Client::connectUnix(path);

    // Over the instruction cap: rejected before any work runs.
    client.sendLine(
        analyzeWorkloadRequest("r1", "compress", 200'000));
    const auto over = client.recvLine(60'000);
    ASSERT_TRUE(over.has_value());
    EXPECT_EQ(statusOf(*over), "error");
    EXPECT_NE(over->find("exceeds server cap"), std::string::npos);

    // A trace longer than the budget is rejected too.
    client.sendLine("{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"trace\",\"id\":\"r2\","
                    "\"records\":\"" +
                    serve::jsonEscape(sampleRecords()) +
                    "\",\"max_instrs\":10}");
    const auto overTrace = client.recvLine(60'000);
    ASSERT_TRUE(overTrace.has_value());
    EXPECT_EQ(statusOf(*overTrace), "error");

    // Unknown workloads fail the request, not the daemon.
    client.sendLine(analyzeWorkloadRequest("r3", "nonesuch", 1000));
    const auto unknown = client.recvLine(60'000);
    ASSERT_TRUE(unknown.has_value());
    EXPECT_EQ(statusOf(*unknown), "error");

    // Malformed JSON gets an error response, connection stays up.
    client.sendLine("this is not json");
    const auto malformed = client.recvLine(60'000);
    ASSERT_TRUE(malformed.has_value());
    EXPECT_EQ(statusOf(*malformed), "error");

    // The connection still serves after all those failures.
    client.sendLine(
        analyzeWorkloadRequest("r4", "compress", 50'000));
    const auto ok = client.recvLine(60'000);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(statusOf(*ok), "ok");

    server.requestStop();
    server.serveUntilStopped();
}

// One hostile line must not take the daemon down for every client:
// 2,000,000 '[' bytes fit under the 8 MiB line bound, and a parser
// recursing once per level would overflow the stack on them.
TEST(ServeDaemon, DeeplyNestedLineGetsAnErrorAndTheDaemonSurvives)
{
    const std::string path = socketPath("deep");
    Server server(testOptions(path));
    server.start();

    Client client = Client::connectUnix(path);
    client.sendLine(std::string(2'000'000, '['));
    const auto reply = client.recvLine(60'000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(statusOf(*reply), "error");

    client.sendLine("{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"ping\"}");
    const auto pong = client.recvLine(60'000);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(statusOf(*pong), "ok");

    server.requestStop();
    server.serveUntilStopped();
}

TEST(ServeDaemon, ShutdownRequestDrainsAndStops)
{
    const std::string path = socketPath("shut");
    Server server(testOptions(path));
    server.start();

    Client client = Client::connectUnix(path);
    client.sendLine("{\"schema\":\"ppm-serve-v1\","
                    "\"kind\":\"shutdown\",\"id\":\"bye\"}");
    const auto response = client.recvLine(60'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(statusOf(*response), "ok");

    // The daemon drains and serveUntilStopped() returns without an
    // external requestStop(); the socket file is removed.
    server.serveUntilStopped();
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

} // namespace
} // namespace ppm
