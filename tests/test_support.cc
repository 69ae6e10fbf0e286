/**
 * @file
 * Unit tests for the support utilities.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/bit_ops.hh"
#include "support/gzip.hh"
#include "support/histogram.hh"
#include "support/rng.hh"
#include "support/sat_counter.hh"
#include "support/string_utils.hh"
#include "support/table_printer.hh"

#ifdef PPM_HAVE_ZLIB
#include <zlib.h>
#endif

namespace ppm {
namespace {

// --- bit_ops ---------------------------------------------------------

TEST(BitOps, LowBits)
{
    EXPECT_EQ(lowBits(0), 0u);
    EXPECT_EQ(lowBits(1), 1u);
    EXPECT_EQ(lowBits(16), 0xffffu);
    EXPECT_EQ(lowBits(64), ~std::uint64_t(0));
}

TEST(BitOps, FoldBitsCoversAllInputBits)
{
    // Flipping any input bit must change the folded result.
    const std::uint64_t base = 0x123456789abcdef0ULL;
    const std::uint64_t folded = foldBits(base, 16);
    EXPECT_LE(folded, lowBits(16));
    for (unsigned bit = 0; bit < 64; ++bit) {
        const std::uint64_t flipped =
            foldBits(base ^ (std::uint64_t(1) << bit), 16);
        EXPECT_NE(folded, flipped) << "bit " << bit << " is ignored";
    }
}

TEST(BitOps, FoldBitsDegenerateWidths)
{
    EXPECT_EQ(foldBits(0xdeadbeef, 0), 0u);
    EXPECT_EQ(foldBits(0xdeadbeef, 64), 0xdeadbeefu);
    EXPECT_EQ(foldBits(0, 16), 0u);
}

TEST(BitOps, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(5, 16), 5);
}

TEST(BitOps, Log2BucketBoundaries)
{
    EXPECT_EQ(log2Bucket(0), 0u);
    EXPECT_EQ(log2Bucket(1), 0u);
    EXPECT_EQ(log2Bucket(2), 1u);
    EXPECT_EQ(log2Bucket(3), 2u);
    EXPECT_EQ(log2Bucket(4), 2u);
    EXPECT_EQ(log2Bucket(5), 3u);
    EXPECT_EQ(log2Bucket(8), 3u);
    EXPECT_EQ(log2Bucket(9), 4u);
    EXPECT_EQ(log2Bucket(256), 8u);
    EXPECT_EQ(log2Bucket(257), 9u);
}

TEST(BitOps, Mix64IsBijectiveish)
{
    // Distinct nearby inputs must map to distinct outputs.
    std::uint64_t prev = mix64(0);
    for (std::uint64_t i = 1; i < 1000; ++i) {
        const std::uint64_t m = mix64(i);
        EXPECT_NE(m, prev);
        prev = m;
    }
}

// --- SatCounter -------------------------------------------------------

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_TRUE(c.isZero());
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturatedHigh());
}

TEST(SatCounter, UpperHalf)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.upperHalf());
    c.increment();
    EXPECT_TRUE(c.upperHalf());
}

TEST(SatCounter, ThreeBitRange)
{
    SatCounter c(3, 0);
    for (int i = 0; i < 20; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(c.max(), 7u);
}

// --- Rng --------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    bool differed = false;
    for (int i = 0; i < 10 && !differed; ++i)
        differed = a.next() != b.next();
    EXPECT_TRUE(differed);
}

TEST(Rng, RangesRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBelow(10), 10u);
        const std::int64_t v = r.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        EXPECT_LE(r.nextSkewed(8), 255u);
    }
}

TEST(Rng, SkewFavorsSmallValues)
{
    Rng r(13);
    std::uint64_t small = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        if (r.nextSkewed(16) < 256)
            ++small;
    }
    // With uniform draws only 1/256 of values would be < 256; the
    // skewed generator should produce far more.
    EXPECT_GT(small, static_cast<std::uint64_t>(n / 4));
}

// --- Histograms --------------------------------------------------------

TEST(Log2Hist, BucketsAndCumulative)
{
    Log2Histogram h;
    h.add(1);      // bucket 0
    h.add(2);      // bucket 1
    h.add(3);      // bucket 2
    h.add(8);      // bucket 3
    h.add(300, 4); // bucket 9, weight 4
    EXPECT_EQ(h.totalWeight(), 8u);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucketWeight(0), 1u);
    EXPECT_EQ(h.bucketWeight(9), 4u);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(3), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(99), 1.0);
    EXPECT_DOUBLE_EQ(h.tailFraction(9), 0.5);
    EXPECT_DOUBLE_EQ(h.tailFraction(0), 1.0);
}

TEST(Log2Hist, EmptyIsSafe)
{
    Log2Histogram h;
    EXPECT_EQ(h.bucketCount(), 0u);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(5), 0.0);
    EXPECT_DOUBLE_EQ(h.tailFraction(0), 0.0);
}

TEST(Log2Hist, Labels)
{
    EXPECT_EQ(Log2Histogram::bucketLabel(0), "0-1");
    EXPECT_EQ(Log2Histogram::bucketLabel(1), "2");
    EXPECT_EQ(Log2Histogram::bucketLabel(2), "3-4");
    EXPECT_EQ(Log2Histogram::bucketLabel(3), "5-8");
    EXPECT_EQ(Log2Histogram::bucketLabel(8), "129-256");
}

TEST(Log2Hist, Merge)
{
    Log2Histogram a;
    Log2Histogram b;
    a.add(4);
    b.add(100, 2);
    a.merge(b);
    EXPECT_EQ(a.totalWeight(), 3u);
    EXPECT_EQ(a.bucketWeight(7), 2u);
}

TEST(LinearHist, OverflowAndCumulative)
{
    LinearHistogram h(4);
    h.add(0);
    h.add(1);
    h.add(3);
    h.add(4);  // overflow
    h.add(99); // overflow
    EXPECT_EQ(h.totalWeight(), 5u);
    EXPECT_EQ(h.overflowWeight(), 2u);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(1), 0.4);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(3), 0.6);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(4), 1.0);
}

// --- string utils -------------------------------------------------------

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StringUtils, SplitAndTrim)
{
    const auto parts = splitAndTrim("a, b , c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtils, FormatCount)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
}

TEST(StringUtils, FormatPercentAndDouble)
{
    EXPECT_EQ(formatPercent(0.1234), "12.3");
    EXPECT_EQ(formatPercent(0.1234, 2), "12.34");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
}

// --- TablePrinter ---------------------------------------------------------

TEST(StringUtils, ParseUintAndIntAreStrict)
{
    EXPECT_EQ(parseUint("0"), 0u);
    EXPECT_EQ(parseUint("0x1F"), 31u);
    EXPECT_EQ(parseUint("18446744073709551615"), UINT64_MAX);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "1e3",
                            "0x", "18446744073709551616", "1.5"})
        EXPECT_FALSE(parseUint(bad).has_value()) << bad;

    EXPECT_EQ(parseInt("-5"), -5);
    EXPECT_EQ(parseInt("-0x10"), -16);
    EXPECT_EQ(parseInt("-9223372036854775808"), INT64_MIN);
    EXPECT_EQ(parseInt("9223372036854775807"), INT64_MAX);
    for (const char *bad : {"", "-", "--1", "5x", "abc",
                            "9223372036854775808",
                            "-9223372036854775809"})
        EXPECT_FALSE(parseInt(bad).has_value()) << bad;
}

TEST(TablePrinter, AlignsAndRules)
{
    TablePrinter t("title");
    t.addRow({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22,000"});
    const std::string out = t.toString();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22,000"), std::string::npos);
    // Header separated by a rule of dashes.
    EXPECT_NE(out.find("----"), std::string::npos);
}

// --- gzip ------------------------------------------------------------

/**
 * A scratch path unique to the running test: ctest runs discovered
 * tests as parallel processes, so a shared fixed path would race.
 */
std::string
scratchPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string("/tmp/ppm_gzip_test_") + info->name() + suffix;
}

TEST(Gzip, SniffIgnoresPlainAndMissingFiles)
{
    const std::string plain = scratchPath(".bin");
    {
        std::ofstream out(plain, std::ios::binary);
        out << "plain bytes";
    }
    EXPECT_FALSE(isGzipFile(plain));
    EXPECT_FALSE(isGzipFile("/tmp/definitely_missing_ppm.bin"));
    std::remove(plain.c_str());
}

#ifdef PPM_HAVE_ZLIB

/** Read a whole file as raw bytes. */
std::string
slurp(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Gzip-compress @p data into the file at @p p (one member). */
void
gzipToFile(const std::string &data, const std::string &p,
           std::ios::openmode mode = std::ios::trunc)
{
    z_stream strm{};
    ASSERT_EQ(deflateInit2(&strm, Z_DEFAULT_COMPRESSION, Z_DEFLATED,
                           16 + MAX_WBITS, 8, Z_DEFAULT_STRATEGY),
              Z_OK);
    std::vector<unsigned char> out(deflateBound(
        &strm, static_cast<uLong>(data.size())));
    strm.next_in = reinterpret_cast<Bytef *>(
        const_cast<char *>(data.data()));
    strm.avail_in = static_cast<uInt>(data.size());
    strm.next_out = out.data();
    strm.avail_out = static_cast<uInt>(out.size());
    ASSERT_EQ(deflate(&strm, Z_FINISH), Z_STREAM_END);
    const std::size_t n = out.size() - strm.avail_out;
    deflateEnd(&strm);
    std::ofstream f(p, std::ios::binary | mode);
    f.write(reinterpret_cast<const char *>(out.data()),
            static_cast<std::streamsize>(n));
}

TEST(Gzip, MultiMemberStreamsConcatenate)
{
    // gzip allows concatenated members (`cat a.gz b.gz`); the reader
    // must inflate across the member boundary.
    std::string data;
    for (int i = 0; i < 500; ++i)
        data += "record " + std::to_string(i) + "\n";
    const std::string gz = scratchPath(".gz");
    gzipToFile(data.substr(0, data.size() / 2), gz);
    gzipToFile(data.substr(data.size() / 2), gz, std::ios::app);
    EXPECT_TRUE(isGzipFile(gz));
    EXPECT_EQ(gunzipFile(gz), data);
    std::remove(gz.c_str());
}

TEST(Gzip, TruncatedStreamThrows)
{
    const std::string gz = scratchPath(".gz");
    gzipToFile("payload payload payload payload", gz);
    const std::string bytes = slurp(gz);
    {
        std::ofstream f(gz, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() - 5));
    }
    EXPECT_THROW(gunzipFile(gz), std::runtime_error);
    std::remove(gz.c_str());
}

#endif // PPM_HAVE_ZLIB

} // namespace
} // namespace ppm
