#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ppm::serve {

namespace {

using F = IntakeField;

/** Kind names, and the intakes each reads, in RequestKind order. */
constexpr const char *kKinds[] = {"analyze", "trace", "stats", "ping",
                                  "shutdown"};
constexpr unsigned kKindReads[] = {
    fieldBit(F::Workload) | fieldBit(F::Family) | fieldBit(F::Source),
    fieldBit(F::Trace), 0, 0, 0};

/** Each field's request member, in IntakeField order. */
constexpr const char *kMembers[kIntakeFields] = {
    "workload", "family", "source", "records", "name",
    "seed", nullptr, nullptr, "predictor", "max_instrs"};

/** kind string -> RequestKind; nullopt for unknown strings. */
std::optional<RequestKind>
kindFromString(const std::string &s)
{
    for (std::size_t i = 0; i < std::size(kKinds); ++i)
        if (s == kKinds[i])
            return RequestKind(i);
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

    IntakeFields found;
    for (std::size_t i = 0; i < kIntakeFields; ++i)
        found.spelling[i] = kMembers[i] ? '"' + std::string(kMembers[i]) + '"'
                                        : "";
    for (const auto &[member, v] : doc.object) {
        if (member == "schema" || member == "kind" || member == "id")
            continue;
        const auto at = std::ranges::find_if(
            kMembers, [&](const char *m) { return m && member == m; });
        if (at == std::end(kMembers)) {
            errors.push_back("unknown member \"" + member + "\"");
            continue;
        }
        const auto field = F(at - std::begin(kMembers));
        const std::string &name = found.spelling[unsigned(field)];
        found.found |= fieldBit(field);
        if (field == F::Seed || field == F::Budget) {
            if (!isUintNumber(v))
                errors.push_back(name +
                                 " must be an integer from 0 to 2^53");
        } else if (field == F::Predictor) {
            if (!v.isString() || parsePredictors(v.str).empty())
                errors.push_back(name + " must be all|last|stride|context");
        } else if (!v.isString() || (field != F::Name && v.str.empty())) {
            errors.push_back(name + " must be a" +
                             (field == F::Name ? "" : " non-empty") +
                             " string");
        }
    }
    if (kind) {
        for (std::string &e :
             checkIntake(found, kKindReads[unsigned(*kind)],
                         "\"kind\":\"" + kindv->str + '"'))
            errors.push_back(std::move(e));
    }
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

    // The intake's own member gives its kind and, for a workload or a
    // family, its name; a source or trace is named by "name".
    Intake &in = req.intake;
    for (unsigned k = 0; k < 4; ++k) {
        if (const JsonValue *v = doc.find(kMembers[k])) {
            in.kind = IntakeKind(k);
            (k < 2 ? in.name : in.text) = v->str;
        }
    }
    if (const JsonValue *v = doc.find("name"); v && !v->str.empty())
        in.name = v->str;
    else if (in.kind == IntakeKind::Source || in.kind == IntakeKind::Trace)
        in.name = "request";
    if (const JsonValue *v = doc.find("seed"))
        in.seed = static_cast<std::uint64_t>(v->number);

    if (const JsonValue *v = doc.find("max_instrs"))
        req.maxInstrs = static_cast<std::uint64_t>(v->number);
    if (const JsonValue *v = doc.find("predictor"))
        req.predictors = parsePredictors(v->str);
    return req;
}

std::string
writeRequest(const ServeRequest &req)
{
    JsonWriter w;
    w.beginObject()
        .key("schema").string(kServeSchema)
        .key("kind").string(kKinds[unsigned(req.kind)])
        .key("id").string(req.id);
    if (req.kind == RequestKind::Analyze || req.kind == RequestKind::Trace) {
        const Intake &in = req.intake;
        const char *member = kMembers[unsigned(in.kind)];
        if (in.kind == IntakeKind::Workload || in.kind == IntakeKind::Family) {
            w.key(member).string(in.name);
            if (in.seed)
                w.key("seed").u64(*in.seed);
        } else {
            if (!in.input.empty())
                throw std::invalid_argument(
                    "a served source runs on an empty input");
            w.key("name").string(in.name).key(member).string(in.text);
        }
        if (req.predictors.size() == 1)
            w.key("predictor").string(predictorName(req.predictors[0]));
        if (req.maxInstrs)
            w.key("max_instrs").u64(*req.maxInstrs);
    }
    return w.endObject().take();
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
