/**
 * @file
 * The `ppm-serve-v1` wire protocol: line-delimited JSON over a local
 * socket. One request object per line in, one response object per
 * line out, same order; the connection is a plain byte stream with no
 * framing beyond the newline.
 *
 * Request object (field set depends on "kind"):
 *
 *   {"schema":"ppm-serve-v1","kind":"analyze","id":"r1",
 *    "workload":"compress","seed":123,
 *    "predictor":"all|last|stride|context",   // default "all"
 *    "max_instrs":100000}
 *
 *   {"schema":"ppm-serve-v1","kind":"trace","id":"r2",
 *    "name":"gcc.trace","records":"0x400 T\n0x404 N\n..."}
 *
 *   {"schema":"ppm-serve-v1","kind":"stats","id":"r3"}
 *   {"schema":"ppm-serve-v1","kind":"ping"}
 *   {"schema":"ppm-serve-v1","kind":"shutdown"}
 *
 * Every request may carry "id". Beside it, each kind and intake reads
 * exactly these members (checkIntake in runner/intake.hh enforces it):
 *
 *   analyze  "workload"  + "seed", "predictor", "max_instrs"
 *            "family"    + "seed", "predictor", "max_instrs"
 *            "source"    + "name", "predictor", "max_instrs"
 *   trace    "records"   + "name", "predictor", "max_instrs"
 *   stats, ping, shutdown: nothing else
 *
 * A request names exactly one intake, one its kind reads, and any
 * other member is refused with an error naming both members in
 * conflict. "workload" is a built-in roster name, "family" a fuzz-farm
 * generator, "source" inline YISA assembly, and "records" branch
 * records in the ChampSim-style text format runner/trace_import.hh
 * parses; "name" (default "request") names a source's program or a
 * trace. A source runs on an empty input.
 *
 * Seeds: a given "seed" is used as given, 0 included; without one a
 * workload reads its default input seed 0x5eed5eed (1592614637) and a
 * family generates seed 0. The fingerprint's "seed" is that seed, and
 * 0 for a source or a trace.
 *
 * Response object:
 *
 *   {"schema":"ppm-serve-v1","id":"r1","status":"ok",
 *    "fingerprint":{...ppm-fingerprint-v1...},
 *    "timing":{"queue_sec":...,"analyze_sec":...,"simulate_sec":...,
 *              "dyn_instrs":N,"capture_shared":true,"fused":true}}
 *
 *   {"schema":"ppm-serve-v1","id":"r1","status":"error",
 *    "error":"message"}
 *
 *   {"schema":"ppm-serve-v1","id":"r1","status":"overloaded",
 *    "error":"..."}        // admission control rejected the request
 *
 * The "fingerprint" member embeds the canonical ppm-fingerprint-v1
 * rendering byte-for-byte (verify/fingerprint.hh), so a served result
 * is comparable — as raw bytes — with `ppm fuzz` / `ppm import`
 * output and with the batch engine path (pinned by
 * tests/test_serve.cc).
 *
 * "status" is one of: ok, error, overloaded. "error" responses cover
 * schema violations, unknown workloads/families, assembly and
 * simulation failures, and over-budget requests; the connection stays
 * open afterwards. Only a malformed *stream* (an over-long line)
 * closes the connection.
 */

#ifndef PPM_SERVE_PROTOCOL_HH
#define PPM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pred/value_predictor.hh"
#include "runner/intake.hh"
#include "support/mini_json.hh"

namespace ppm::serve {

inline constexpr const char *kServeSchema = "ppm-serve-v1";

/** Request kinds the daemon understands. */
enum class RequestKind
{
    Analyze,  ///< Run the model over a program and fingerprint it.
    Trace,    ///< Run the model over inline external branch records.
    Stats,    ///< Report daemon / engine / cache counters.
    Ping,     ///< Liveness probe.
    Shutdown, ///< Ask the daemon to drain and exit.
};

/** One parsed, validated request line. */
struct ServeRequest
{
    std::string id; ///< Echoed verbatim in the response ("" ok).
    RequestKind kind = RequestKind::Ping;

    /** What an analyze or trace request analyzes. */
    Intake intake;

    /** One lane per kind: all three unless "predictor" names one. */
    std::vector<PredictorKind> predictors = parsePredictors("all");

    /** Per-request instruction budget; nullopt = server default. */
    std::optional<std::uint64_t> maxInstrs;
};

/**
 * Validate @p doc as a ppm-serve-v1 request. Returns one message per
 * violation (empty = valid): wrong schema, unknown kind, mistyped or
 * unknown members, and the intake conflicts checkIntake() names.
 */
std::vector<std::string> validateRequest(const JsonValue &doc);

/**
 * Parse a validated request document. Call validateRequest() first;
 * throws on documents it would have rejected.
 */
ServeRequest parseRequest(const JsonValue &doc);

/**
 * The request line for @p req (no newline): the writer `ppm client`
 * sends with, read back by parseRequest(). Throws
 * std::invalid_argument for a source with an input, which the
 * protocol cannot carry.
 */
std::string writeRequest(const ServeRequest &req);

/** The JSON string escaper every ppm document uses. */
using ppm::jsonEscape;

/**
 * True iff @p line parses as a response object with "status":"ok".
 * Malformed JSON and error/overloaded statuses are failures — this is
 * the per-response predicate `ppm client` folds over a `--count N`
 * batch (any single failure makes the whole batch exit non-zero).
 */
bool responseOk(const std::string &line);

/** Timing summary attached to ok analyze/trace responses. */
struct ResponseTiming
{
    double queueSec = 0.0;
    double simulateSec = 0.0;
    double analyzeSec = 0.0;
    std::uint64_t dynInstrs = 0;
    bool captureShared = false;

    /** The request's pass had more than one lane. */
    bool fused = false;
};

/**
 * Render an ok response. @p fingerprint must be a complete
 * ppm-fingerprint-v1 object, embedded verbatim (it is already JSON).
 */
std::string okResponse(const std::string &id,
                       const std::string &fingerprint,
                       const ResponseTiming &timing);

/** Render an error response ("status":"error"). */
std::string errorResponse(const std::string &id,
                          const std::string &message);

/** Render an admission-control rejection ("status":"overloaded"). */
std::string overloadedResponse(const std::string &id,
                               const std::string &message);

/** Render a pong ("status":"ok" with no payload). */
std::string pongResponse(const std::string &id);

/**
 * Render a stats response: @p body is a pre-rendered JSON object
 * embedded as the "stats" member.
 */
std::string statsResponse(const std::string &id,
                          const std::string &body);

} // namespace ppm::serve

#endif // PPM_SERVE_PROTOCOL_HH
