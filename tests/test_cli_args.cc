/**
 * @file
 * Tests for the command-line argument helper.
 */

#include <gtest/gtest.h>

#include "support/cli_args.hh"

namespace ppm {
namespace {

CliArgs
make(std::initializer_list<const char *> tokens,
     std::initializer_list<std::string> value_options = {})
{
    std::vector<const char *> argv = {"ppm"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return CliArgs(static_cast<int>(argv.size()), argv.data(),
                   value_options);
}

TEST(CliArgs, Positionals)
{
    const CliArgs args = make({"run", "prog.s"});
    ASSERT_EQ(args.positionals().size(), 2u);
    EXPECT_EQ(args.positionals()[0], "run");
    EXPECT_EQ(args.positionals()[1], "prog.s");
}

TEST(CliArgs, FlagsDoNotConsumePositionals)
{
    const CliArgs args = make({"run", "--trace", "prog.s"});
    EXPECT_TRUE(args.flag("trace"));
    ASSERT_EQ(args.positionals().size(), 2u);
    EXPECT_EQ(args.positionals()[1], "prog.s");
}

TEST(CliArgs, ValueOptionsBothSyntaxes)
{
    const CliArgs args =
        make({"--max", "100", "--predictor=stride"}, {"max"});
    EXPECT_EQ(args.option("max"), "100");
    EXPECT_EQ(args.option("predictor"), "stride");
    EXPECT_EQ(args.intOption("max"), 100);
}

TEST(CliArgs, IntOptionParsesHexAndRejectsGarbage)
{
    const CliArgs args = make({"--max=0x40", "--bad=12x"});
    EXPECT_EQ(args.intOption("max"), 0x40);
    EXPECT_THROW(args.intOption("bad"), std::exception);

    // The whole value is one unsigned decimal or hex number within
    // the option's bound; anything else names the option.
    const CliArgs more =
        make({"--neg=-5", "--exp=1e3", "--big=18446744073709551616",
              "--sp= 7", "--port=65536", "--ok=65535", "--oct=010"});
    for (const char *name : {"neg", "exp", "big", "sp"})
        EXPECT_THROW(more.intOption(name), CliError) << name;
    EXPECT_THROW(more.intOption("port", 65535), CliError);
    EXPECT_EQ(more.intOption("ok", 65535), 65535u);
    EXPECT_EQ(more.intOption("oct"), 10u); // Decimal, not octal.
    try {
        more.intOption("neg");
    } catch (const CliError &e) {
        EXPECT_NE(std::string(e.what()).find("--neg"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CliArgs, MissingOptionIsNullopt)
{
    const CliArgs args = make({"run"});
    EXPECT_FALSE(args.option("max").has_value());
    EXPECT_FALSE(args.intOption("max").has_value());
    EXPECT_FALSE(args.flag("trace"));
}

TEST(CliArgs, FlagWithoutValueThrowsWhenValueRequested)
{
    const CliArgs args = make({"--trace"});
    EXPECT_THROW(args.option("trace"), std::exception);
}

TEST(CliArgs, UnconsumedOptionsDetected)
{
    const CliArgs args = make({"--typo=1", "--used=2"});
    (void)args.option("used");
    const auto leftover = args.unconsumedOptions();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover[0], "typo");
}

} // namespace
} // namespace ppm
