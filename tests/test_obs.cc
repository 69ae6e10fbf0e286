/**
 * @file
 * Observability-layer tests: the metrics registry, hierarchical trace
 * spans and their Chrome-trace export, the env-parsing helpers, and
 * support/mini_json: the parser the validators are built on and the
 * writer every document is encoded with.
 *
 * forceEnable() is process-sticky, so these tests never assert that
 * observability is *off*; they use uniquely named metrics to stay
 * independent of instrumentation noise from other test files.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "support/env.hh"
#include "support/mini_json.hh"
#include "support/rng.hh"

namespace ppm {
namespace {

TEST(Metrics, CounterGaugeHistogram)
{
    obs::Registry reg;

    obs::Counter &c = reg.counter("t.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same metric.
    EXPECT_EQ(&reg.counter("t.counter"), &c);

    obs::Gauge &g = reg.gauge("t.gauge");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.max(), 7);
    g.add(-5);
    EXPECT_EQ(g.value(), -2);
    EXPECT_EQ(g.max(), 7);

    obs::Histogram &h = reg.histogram("t.hist");
    h.observe(0);   // bucket 0
    h.observe(1);   // bucket 1
    h.observe(2);   // bucket 2
    h.observe(3);   // bucket 2
    h.observe(1024);  // bucket 11
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(11), 1u);
}

TEST(Metrics, HistogramZeroAndOneBucketsAndExtremes)
{
    // The log2 bucket index is bit_width(v): a 0-valued sample (an
    // idle request_queue_us, say) must land in bucket 0 — not wrap
    // into the top bucket via a 64-shift — and 1 is the sole value
    // of bucket 1, so the zero/one boundary is exact.
    obs::Histogram h;
    h.observe(0);
    h.observe(0);
    h.observe(1);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.count(), 3u);

    // Power-of-two boundaries: 2^k-1 is the top of bucket k, 2^k the
    // bottom of bucket k+1.
    for (unsigned k : {1u, 7u, 31u, 62u}) {
        obs::Histogram edges;
        edges.observe((1ULL << k) - 1);
        edges.observe(1ULL << k);
        EXPECT_EQ(edges.bucket(k), 1u) << "below 2^" << k;
        EXPECT_EQ(edges.bucket(k + 1), 1u) << "at 2^" << k;
    }

    // The extremes of the value range occupy the outermost buckets
    // (kBuckets = 65: indices 0..64 inclusive).
    obs::Histogram extremes;
    extremes.observe(std::numeric_limits<std::uint64_t>::max());
    extremes.observe(1ULL << 63);
    EXPECT_EQ(extremes.bucket(obs::Histogram::kBuckets - 1), 2u);
    EXPECT_EQ(extremes.count(), 2u);
}

TEST(Metrics, TextDumpIsSortedByName)
{
    obs::Registry reg;
    reg.counter("z.last").add(1);
    reg.counter("a.first").add(2);
    reg.gauge("m.middle").set(3);

    std::ostringstream os;
    reg.dumpText(os);
    const std::string doc = os.str();
    const auto a = doc.find("a.first 2");
    const auto m = doc.find("m.middle 3");
    const auto z = doc.find("z.last 1");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, z);
}

TEST(Metrics, JsonDumpParsesAndCarriesValues)
{
    obs::Registry reg;
    reg.counter("j.count").add(99);
    reg.gauge("j.gauge").set(-4);
    reg.histogram("j.hist").observe(5);

    std::ostringstream os;
    reg.dumpJson(os);
    const JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("schema").str, "ppm-metrics-v1");
    EXPECT_EQ(doc.at("counters").at("j.count").number, 99.0);
    EXPECT_EQ(doc.at("gauges").at("j.gauge").at("value").number, -4.0);
    const JsonValue &h = doc.at("histograms").at("j.hist");
    EXPECT_EQ(h.at("count").number, 1.0);
    ASSERT_EQ(h.at("buckets").array.size(), obs::Histogram::kBuckets);
    EXPECT_EQ(h.at("buckets").array[3].number, 1.0);
}

TEST(Metrics, JsonDumpBytesArePinned)
{
    obs::Registry reg;
    reg.counter("b.two").add(2);
    reg.counter("a.one").add(1);
    reg.gauge("g.level").set(7);
    reg.gauge("g.level").set(-4);
    reg.gauge("g.fresh");
    reg.histogram("h.lat").observe(0);
    reg.histogram("h.lat").observe(5);
    reg.histogram("h.lat").observe(1ULL << 40);

    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(
        os.str(),
        "{\"schema\":\"ppm-metrics-v1\",\"counters\":{\"a.one\":1,\"b."
        "two\":2},\"gauges\":{\"g.fresh\":{\"value\":0,\"max\":0},\"g."
        "level\":{\"value\":-4,\"max\":7}},\"histograms\":{\"h.lat\":{"
        "\"count\":3,\"buckets\":[1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0"
        ",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}\n");
}

TEST(Obs, ForceEnableTurnsHandlesOn)
{
    obs::forceEnable();
    ASSERT_TRUE(obs::enabled());
    ASSERT_NE(obs::registry(), nullptr);
    ASSERT_NE(obs::tracer(), nullptr);

    obs::Counter *c = obs::counter("test.force_enable");
    ASSERT_NE(c, nullptr);
    c->add(3);
    EXPECT_EQ(c->value(), 3u);
    EXPECT_EQ(obs::counter("test.force_enable"), c);
    ASSERT_NE(obs::gauge("test.fe_gauge"), nullptr);
    ASSERT_NE(obs::histogram("test.fe_hist"), nullptr);
}

TEST(Obs, SpansNestAndExport)
{
    obs::forceEnable();
    obs::Tracer *tracer = obs::tracer();
    ASSERT_NE(tracer, nullptr);
    tracer->setThreadName("obs-test");

    const std::uint64_t before = tracer->spanCount();
    {
        obs::Span outer("outer", "test");
        {
            obs::Span inner("inner", "test");
        }
    }
    EXPECT_EQ(tracer->spanCount(), before + 2);

    std::ostringstream os;
    obs::exportChromeTrace(os);
    const JsonValue doc = parseJson(os.str());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // Find our two spans; the inner one closed first, so it precedes
    // the outer in its thread's buffer, and its interval nests inside.
    const JsonValue *outer = nullptr;
    const JsonValue *inner = nullptr;
    for (const JsonValue &e : events.array) {
        if (!e.find("name"))
            continue;
        if (e.at("name").str == "outer")
            outer = &e;
        if (e.at("name").str == "inner")
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->at("ph").str, "X");
    EXPECT_EQ(outer->at("cat").str, "test");
    EXPECT_GE(inner->at("ts").number, outer->at("ts").number);
    EXPECT_LE(inner->at("ts").number + inner->at("dur").number,
              outer->at("ts").number + outer->at("dur").number);

    // The thread-name metadata event made it out too.
    bool named = false;
    for (const JsonValue &e : events.array) {
        if (e.at("ph").str == "M" &&
            e.at("args").at("name").str == "obs-test")
            named = true;
    }
    EXPECT_TRUE(named);
}

// --- support/env ---------------------------------------------------------

TEST(Env, UintParsesAndFallsBack)
{
    unsetenv("PPM_TEST_ENV");
    EXPECT_EQ(envUint("PPM_TEST_ENV", 7), 7u);
    ASSERT_EQ(setenv("PPM_TEST_ENV", "", 1), 0);
    EXPECT_EQ(envUint("PPM_TEST_ENV", 7), 7u);
    ASSERT_EQ(setenv("PPM_TEST_ENV", "12", 1), 0);
    EXPECT_EQ(envUint("PPM_TEST_ENV", 7), 12u);
    unsetenv("PPM_TEST_ENV");
}

TEST(Env, UintRejectsMalformedLoudly)
{
    for (const char *bad : {"abc", "12abc", "-3", "1.5", " 12"}) {
        ASSERT_EQ(setenv("PPM_TEST_ENV", bad, 1), 0);
        try {
            envUint("PPM_TEST_ENV", 7);
            FAIL() << "accepted " << bad;
        } catch (const EnvError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("PPM_TEST_ENV"), std::string::npos)
                << what;
            EXPECT_NE(what.find(bad), std::string::npos) << what;
        }
    }
    // Below the stated minimum is as loud as unparseable.
    ASSERT_EQ(setenv("PPM_TEST_ENV", "0", 1), 0);
    EXPECT_THROW(envUint("PPM_TEST_ENV", 7, /*min=*/1), EnvError);
    unsetenv("PPM_TEST_ENV");
}

TEST(Env, FlagParsesAndRejects)
{
    unsetenv("PPM_TEST_ENV");
    EXPECT_TRUE(envFlag("PPM_TEST_ENV", true));
    EXPECT_FALSE(envFlag("PPM_TEST_ENV", false));
    for (const char *yes : {"1", "true", "yes", "on", "TRUE", "On"}) {
        ASSERT_EQ(setenv("PPM_TEST_ENV", yes, 1), 0);
        EXPECT_TRUE(envFlag("PPM_TEST_ENV", false)) << yes;
    }
    for (const char *no : {"0", "false", "no", "off", "OFF"}) {
        ASSERT_EQ(setenv("PPM_TEST_ENV", no, 1), 0);
        EXPECT_FALSE(envFlag("PPM_TEST_ENV", true)) << no;
    }
    ASSERT_EQ(setenv("PPM_TEST_ENV", "maybe", 1), 0);
    EXPECT_THROW(envFlag("PPM_TEST_ENV", true), EnvError);
    unsetenv("PPM_TEST_ENV");
}

// --- support/mini_json ---------------------------------------------------

TEST(MiniJson, ParsesScalarsAndContainers)
{
    const JsonValue doc = parseJson(
        R"({"a": 1, "b": [true, false, null], "c": {"d": "e"},)"
        R"( "n": -2.5e2, "s": "q\"\\\/\b\f\n\r\t\u0041\u00e9"})");
    EXPECT_EQ(doc.at("a").number, 1.0);
    ASSERT_EQ(doc.at("b").array.size(), 3u);
    EXPECT_TRUE(doc.at("b").array[0].boolean);
    EXPECT_FALSE(doc.at("b").array[1].boolean);
    EXPECT_TRUE(doc.at("b").array[2].isNull());
    EXPECT_EQ(doc.at("c").at("d").str, "e");
    EXPECT_EQ(doc.at("n").number, -250.0);
    EXPECT_EQ(doc.at("s").str, "q\"\\/\b\f\n\r\tA\xc3\xa9");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(MiniJson, SurrogatePairsDecodeToUtf8)
{
    const JsonValue doc = parseJson(R"(["\ud83d\ude00"])");
    EXPECT_EQ(doc.array[0].str, "\xf0\x9f\x98\x80");
}

TEST(MiniJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "01", "\"unterminated",
          "[1] garbage", "{\"a\" 1}", "nul", "\"\\u12\"",
          "\"\\ud800\""}) {
        EXPECT_THROW(parseJson(bad), JsonError) << bad;
    }
}

// The parser recurses per nesting level; past a fixed depth it must
// raise JsonError instead of overflowing the stack.
TEST(MiniJson, RejectsNestingPastTheDepthBound)
{
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(parseJson(nested(256)));
    EXPECT_THROW(parseJson(nested(257)), JsonError);
    EXPECT_THROW(parseJson(std::string(2'000'000, '[')), JsonError);
    EXPECT_THROW(parseJson(std::string(300, '{')), JsonError);
}

TEST(MiniJson, ErrorsCarryByteOffsets)
{
    try {
        parseJson("[1, 2, oops]");
        FAIL();
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("at byte 7"),
                  std::string::npos)
            << e.what();
    }
}

// --- support/mini_json: the writer ----------------------------------------

/** @p v as a general-form member, as the writer encodes it. */
std::string
generalMember(double v)
{
    JsonWriter w;
    return w.beginObject().key("v").general(v).endObject().take();
}

TEST(JsonWriter, GeneralFormMatchesOstream)
{
    std::vector<double> values = {0.0,  -0.0, 1e-5,      28.918734,
                                  1e20, 123456789, 0.9275, -4.5};
    // Plus a seeded sweep across magnitudes and signs.
    Rng rng(0x15011);
    for (int i = 0; i < 2000; ++i) {
        const double mantissa =
            static_cast<double>(rng.next() >> 11) / double(1ULL << 53);
        const double v = std::ldexp(mantissa, rng.nextRange(-60, 80));
        values.push_back(i % 2 ? v : -v);
    }
    for (double v : values) {
        std::ostringstream os;
        os << v;
        EXPECT_EQ(generalMember(v), "{\"v\":" + os.str() + "}") << v;
    }
}

TEST(JsonWriter, FixedFormMatchesPrintf)
{
    Rng rng(0xf1ed);
    for (int i = 0; i < 2000; ++i) {
        const double v = std::ldexp(
            static_cast<double>(rng.next() >> 11) / double(1ULL << 53),
            rng.nextRange(-30, 40));
        for (int decimals : {2, 4, 6}) {
            char buf[128];
            std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
            JsonWriter w;
            w.beginObject().key("v").fixed(v, decimals).endObject();
            EXPECT_EQ(w.json(), "{\"v\":" + std::string(buf) + "}")
                << v;
        }
    }
}

TEST(JsonWriter, NonFiniteNumbersThrow)
{
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        JsonWriter w;
        w.beginArray();
        EXPECT_THROW(w.general(bad), JsonError) << bad;
        EXPECT_THROW(w.fixed(bad, 4), JsonError) << bad;
    }
}

TEST(JsonWriter, NestsSeparatesAndEscapes)
{
    JsonWriter w;
    w.beginObject()
        .key("s\"k").string("a\\b\x1f")
        .key("t").boolean(true)
        .key("neg").i64(-7)
        .key("xs").beginArray()
        .u64(1)
        .raw("{\"pre\":true}")
        .beginObject()
        .endObject()
        .endArray()
        .key("o").beginObject()
        .key("r").raw("[]")
        .key("max").u64(std::numeric_limits<std::uint64_t>::max())
        .endObject()
        .endObject()
        .newline();
    const std::string doc = w.take();
    EXPECT_EQ(doc,
              "{\"s\\\"k\":\"a\\\\b\\u001f\",\"t\":true,\"neg\":-7,"
              "\"xs\":[1,{\"pre\":true},{}],"
              "\"o\":{\"r\":[],\"max\":18446744073709551615}}\n");
    const JsonValue parsed = parseJson(doc);
    EXPECT_EQ(parsed.at("s\"k").str, "a\\b\x1f");
    EXPECT_EQ(jsonEscape("tab\there\r\n"), "tab\\there\\r\\n");
}

} // namespace
} // namespace ppm
