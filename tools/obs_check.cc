/**
 * @file
 * `ppm_obs_check <trace.json> <metrics.json>` — validator for the
 * observability exports, run by the obs_smoke ctest and the CI
 * observability job against a real fig5_overall run.
 *
 * Checks:
 *  - both documents are well-formed JSON (mini_json, full RFC 8259);
 *  - the trace is Chrome-trace shaped: every event carries ph/pid/tid,
 *    "X" events carry name/cat/ts/dur, "M" events carry args.name;
 *  - spans nest: on each thread, any two span intervals are disjoint
 *    or contained (RAII scoping guarantees this; partial overlap
 *    means a broken exporter);
 *  - metrics use the "ppm-metrics-v1" schema, every counter is a
 *    non-negative integer, gauges carry value <= max;
 *  - cross-document consistency: span counts for "pass" and
 *    "simulate" match the runner.* counters, every unsampled pass
 *    resolved its capture through the cache, passes never exceed
 *    completed jobs, hits never exceed lookups, and table occupancy
 *    never exceeds capacity.
 */

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/mini_json.hh"

namespace {

using ppm::JsonError;
using ppm::JsonValue;
using ppm::parseJson;

int failures = 0;

void
fail(const std::string &what)
{
    std::cerr << "ppm_obs_check: " << what << "\n";
    ++failures;
}

void
check(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
}

std::string
slurp(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "ppm_obs_check: cannot read " << path << "\n";
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
isUint(const JsonValue &v)
{
    return v.isNumber() && v.number >= 0 &&
           v.number == std::floor(v.number);
}

struct Interval
{
    std::uint64_t start;
    std::uint64_t end;
    std::string name;
};

/** Span names -> occurrence counts, for the cross-document checks. */
std::map<std::string, std::uint64_t>
checkTrace(const JsonValue &doc)
{
    std::map<std::string, std::uint64_t> names;
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        fail("trace: no traceEvents array");
        return names;
    }

    std::map<std::uint64_t, std::vector<Interval>> perTid;
    std::size_t i = 0;
    for (const JsonValue &e : events->array) {
        const std::string where =
            "trace: event " + std::to_string(i++);
        if (!e.isObject()) {
            fail(where + " is not an object");
            continue;
        }
        const JsonValue *ph = e.find("ph");
        if (!ph || !ph->isString()) {
            fail(where + " has no ph");
            continue;
        }
        check(e.find("pid") && isUint(e.at("pid")),
              where + ": bad pid");
        check(e.find("tid") && isUint(e.at("tid")),
              where + ": bad tid");
        if (ph->str == "M") {
            const JsonValue *args = e.find("args");
            check(args && args->find("name") &&
                      args->at("name").isString(),
                  where + ": metadata event without args.name");
            continue;
        }
        if (ph->str != "X") {
            fail(where + ": unexpected ph '" + ph->str + "'");
            continue;
        }
        check(e.find("name") && e.at("name").isString(),
              where + ": span without name");
        check(e.find("cat") && e.at("cat").isString(),
              where + ": span without cat");
        if (!e.find("ts") || !isUint(e.at("ts")) || !e.find("dur") ||
            !isUint(e.at("dur"))) {
            fail(where + ": span without integral ts/dur");
            continue;
        }
        const std::uint64_t ts =
            static_cast<std::uint64_t>(e.at("ts").number);
        const std::uint64_t dur =
            static_cast<std::uint64_t>(e.at("dur").number);
        const std::string &name = e.at("name").str;
        ++names[name];
        perTid[static_cast<std::uint64_t>(e.at("tid").number)]
            .push_back(Interval{ts, ts + dur, name});
    }

    // Nesting: on one thread, any two spans are disjoint or one
    // contains the other. O(n^2) is fine at smoke-test scale.
    for (const auto &[tid, spans] : perTid) {
        for (std::size_t a = 0; a < spans.size(); ++a) {
            for (std::size_t b = a + 1; b < spans.size(); ++b) {
                const Interval &x = spans[a];
                const Interval &y = spans[b];
                const bool disjoint =
                    x.end <= y.start || y.end <= x.start;
                const bool x_in_y =
                    y.start <= x.start && x.end <= y.end;
                const bool y_in_x =
                    x.start <= y.start && y.end <= x.end;
                check(disjoint || x_in_y || y_in_x,
                      "trace: spans '" + x.name + "' and '" + y.name +
                          "' partially overlap on tid " +
                          std::to_string(tid));
            }
        }
    }
    return names;
}

std::map<std::string, std::uint64_t>
checkMetrics(const JsonValue &doc)
{
    std::map<std::string, std::uint64_t> counters;
    const JsonValue *schema = doc.find("schema");
    check(schema && schema->isString() &&
              schema->str == "ppm-metrics-v1",
          "metrics: missing or wrong schema marker");

    const JsonValue *cs = doc.find("counters");
    if (!cs || !cs->isObject()) {
        fail("metrics: no counters object");
        return counters;
    }
    for (const auto &[name, v] : cs->object) {
        if (!isUint(v)) {
            fail("metrics: counter " + name +
                 " is not a non-negative integer");
            continue;
        }
        counters[name] = static_cast<std::uint64_t>(v.number);
    }

    if (const JsonValue *gs = doc.find("gauges")) {
        for (const auto &[name, g] : gs->object) {
            check(g.find("value") && g.at("value").isNumber() &&
                      g.find("max") && g.at("max").isNumber() &&
                      g.at("value").number <= g.at("max").number,
                  "metrics: gauge " + name +
                      " lacks value <= max");
        }
    }
    return counters;
}

std::uint64_t
counterOr0(const std::map<std::string, std::uint64_t> &counters,
           const std::string &name)
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void
checkConsistency(const std::map<std::string, std::uint64_t> &spans,
                 const std::map<std::string, std::uint64_t> &counters)
{
    auto expectEq = [&](const std::string &label, std::uint64_t a,
                        std::uint64_t b) {
        check(a == b, "consistency: " + label + " (" +
                          std::to_string(a) + " vs " +
                          std::to_string(b) + ")");
    };

    // The unit of work is a pass: one stream feeding one lane per
    // coalesced cell, so stream-level spans and counters count passes
    // while jobs_completed counts cells. Each counter is bumped in
    // the same function as the span it is checked against.
    const std::uint64_t jobs =
        counterOr0(counters, "runner.jobs_completed");
    const std::uint64_t passes = counterOr0(counters, "runner.passes");
    check(jobs > 0, "consistency: no jobs recorded");
    check(passes <= jobs,
          "consistency: runner.passes exceeds runner.jobs_completed");
    expectEq("span(pass) == runner.passes",
             counterOr0(spans, "pass"), passes);
    expectEq("span(simulate) == runner.simulations",
             counterOr0(spans, "simulate"),
             counterOr0(counters, "runner.simulations"));
    expectEq("capture hits + misses + runner.sampled_passes == "
             "runner.passes",
             counterOr0(counters, "cache.capture_hits") +
                 counterOr0(counters, "cache.capture_misses") +
                 counterOr0(counters, "runner.sampled_passes"),
             passes);
    for (const char *role : {"output", "input", "branch"}) {
        const std::string base = std::string("pred.") + role;
        check(counterOr0(counters, base + "_hits") <=
                  counterOr0(counters, base + "_lookups"),
              "consistency: " + base + " hits exceed lookups");
    }
    for (const char *role : {"output", "input"}) {
        const std::string base = std::string("pred.") + role;
        check(counterOr0(counters, base + "_table_occupied") <=
                  counterOr0(counters, base + "_table_capacity"),
              "consistency: " + base + " occupancy exceeds capacity");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: ppm_obs_check <trace.json> "
                     "<metrics.json>\n";
        return 2;
    }

    std::map<std::string, std::uint64_t> spans;
    std::map<std::string, std::uint64_t> counters;
    try {
        spans = checkTrace(parseJson(slurp(argv[1])));
    } catch (const JsonError &e) {
        fail(std::string("trace JSON: ") + e.what());
    }
    try {
        counters = checkMetrics(parseJson(slurp(argv[2])));
    } catch (const JsonError &e) {
        fail(std::string("metrics JSON: ") + e.what());
    }
    if (failures == 0)
        checkConsistency(spans, counters);

    if (failures != 0) {
        std::cerr << "ppm_obs_check: " << failures << " failure(s)\n";
        return 1;
    }
    std::cout << "ppm_obs_check: ok (" << counters.size()
              << " counters, "
              << spans.size() << " span site(s))\n";
    return 0;
}
