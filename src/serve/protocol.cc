#include "serve/protocol.hh"

#include <cmath>

namespace ppm::serve {

namespace {

/** kind string -> RequestKind; nullopt for unknown strings. */
std::optional<RequestKind>
kindFromString(const std::string &s)
{
    if (s == "analyze")
        return RequestKind::Analyze;
    if (s == "trace")
        return RequestKind::Trace;
    if (s == "stats")
        return RequestKind::Stats;
    if (s == "ping")
        return RequestKind::Ping;
    if (s == "shutdown")
        return RequestKind::Shutdown;
    return std::nullopt;
}

std::optional<PredictorKind>
predictorFromString(const std::string &s)
{
    if (s == "last" || s == "last-value")
        return PredictorKind::LastValue;
    if (s == "stride")
        return PredictorKind::Stride2Delta;
    if (s == "context")
        return PredictorKind::Context;
    return std::nullopt;
}

/**
 * True when @p v is a non-negative integer no larger than 2^53. Up to
 * there a double holds every integer exactly; past it the parsed
 * number may not be the one the client sent, and past 2^64 the cast
 * to std::uint64_t is undefined.
 */
bool
isUintNumber(const JsonValue &v)
{
    return v.isNumber() && v.number >= 0 &&
           v.number <= 9007199254740992.0 &&
           v.number == std::floor(v.number);
}

JsonWriter
responseHead(const std::string &id, const char *status)
{
    JsonWriter w;
    w.beginObject()
        .key("schema").string(kServeSchema)
        .key("id").string(id)
        .key("status").string(status);
    return w;
}

} // namespace

std::vector<std::string>
validateRequest(const JsonValue &doc)
{
    std::vector<std::string> errors;
    if (!doc.isObject()) {
        errors.push_back("request is not a JSON object");
        return errors;
    }

    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString())
        errors.push_back("missing string member \"schema\"");
    else if (schema->str != kServeSchema)
        errors.push_back("schema is \"" + schema->str +
                         "\", expected \"" + kServeSchema + "\"");

    const JsonValue *kindv = doc.find("kind");
    std::optional<RequestKind> kind;
    if (!kindv || !kindv->isString()) {
        errors.push_back("missing string member \"kind\"");
    } else {
        kind = kindFromString(kindv->str);
        if (!kind) {
            errors.push_back(
                "unknown kind \"" + kindv->str +
                "\" (expected analyze|trace|stats|ping|shutdown)");
        }
    }

    if (const JsonValue *id = doc.find("id"); id && !id->isString())
        errors.push_back("\"id\" must be a string");
    for (const char *field : {"seed", "max_instrs"}) {
        if (const JsonValue *v = doc.find(field);
            v && !isUintNumber(*v)) {
            errors.push_back(std::string("\"") + field +
                             "\" must be an integer from 0 to 2^53");
        }
    }
    if (const JsonValue *p = doc.find("predictor")) {
        if (!p->isString() ||
            (p->str != "all" && !predictorFromString(p->str))) {
            errors.push_back(
                "\"predictor\" must be all|last|stride|context");
        }
    }

    if (kind == RequestKind::Analyze) {
        unsigned intakes = 0;
        for (const char *field : {"workload", "family", "source"}) {
            const JsonValue *v = doc.find(field);
            if (!v)
                continue;
            if (!v->isString() || v->str.empty()) {
                errors.push_back(std::string("\"") + field +
                                 "\" must be a non-empty string");
            }
            ++intakes;
        }
        if (intakes != 1) {
            errors.push_back("analyze needs exactly one of "
                             "\"workload\", \"family\", \"source\"");
        }
    } else if (kind == RequestKind::Trace) {
        const JsonValue *records = doc.find("records");
        if (!records || !records->isString() ||
            records->str.empty()) {
            errors.push_back(
                "trace needs a non-empty string member \"records\"");
        }
    }
    if (const JsonValue *n = doc.find("name"); n && !n->isString())
        errors.push_back("\"name\" must be a string");

    return errors;
}

ServeRequest
parseRequest(const JsonValue &doc)
{
    ServeRequest req;
    if (const JsonValue *id = doc.find("id"))
        req.id = id->str;
    const auto kind = kindFromString(doc.at("kind").str);
    if (!kind)
        throw JsonError("unknown request kind");
    req.kind = *kind;
    if (const JsonValue *v = doc.find("workload"))
        req.workload = v->str;
    if (const JsonValue *v = doc.find("family"))
        req.family = v->str;
    if (const JsonValue *v = doc.find("source"))
        req.source = v->str;
    if (const JsonValue *v = doc.find("name"))
        req.name = v->str;
    if (const JsonValue *v = doc.find("records"))
        req.records = v->str;
    if (const JsonValue *v = doc.find("seed"))
        req.seed = static_cast<std::uint64_t>(v->number);
    if (const JsonValue *v = doc.find("max_instrs"))
        req.maxInstrs = static_cast<std::uint64_t>(v->number);
    if (const JsonValue *v = doc.find("predictor");
        v && v->str != "all")
        req.predictor = predictorFromString(v->str);
    return req;
}

std::string
okResponse(const std::string &id, const std::string &fingerprint,
           const ResponseTiming &timing)
{
    return responseHead(id, "ok")
        .key("fingerprint").raw(fingerprint)
        .key("timing").beginObject()
        .key("queue_sec").fixed(timing.queueSec, 6)
        .key("simulate_sec").fixed(timing.simulateSec, 6)
        .key("analyze_sec").fixed(timing.analyzeSec, 6)
        .key("dyn_instrs").u64(timing.dynInstrs)
        .key("capture_shared").boolean(timing.captureShared)
        .key("fused").boolean(timing.fused)
        .endObject()
        .endObject()
        .take();
}

std::string
errorResponse(const std::string &id, const std::string &message)
{
    return responseHead(id, "error")
        .key("error").string(message)
        .endObject()
        .take();
}

std::string
overloadedResponse(const std::string &id, const std::string &message)
{
    return responseHead(id, "overloaded")
        .key("error").string(message)
        .endObject()
        .take();
}

std::string
pongResponse(const std::string &id)
{
    return responseHead(id, "ok").endObject().take();
}

bool
responseOk(const std::string &line)
{
    try {
        const JsonValue doc = parseJson(line);
        const JsonValue *status = doc.find("status");
        return status && status->isString() && status->str == "ok";
    } catch (const JsonError &) {
        return false;
    }
}

std::string
statsResponse(const std::string &id, const std::string &body)
{
    return responseHead(id, "ok").key("stats").raw(body).endObject().take();
}

} // namespace ppm::serve
