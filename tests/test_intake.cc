/**
 * @file
 * Intake tests: the command-line intake parser and the ppm-serve-v1
 * request parser and writer agree on every intake, every conflict is
 * refused naming both members, and label() names the fingerprint
 * source.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "runner/intake.hh"
#include "serve/protocol.hh"
#include "support/cli_args.hh"
#include "support/mini_json.hh"

namespace ppm {
namespace {

/** A file under the test temp dir holding @p text. */
std::string
tempFile(const std::string &tag, const std::string &text)
{
    const std::string path = ::testing::TempDir() + "ppm_intake_" +
                             std::to_string(::getpid()) + "_" + tag;
    std::ofstream(path) << text;
    return path;
}

/** `ppm <tokens>`, parsed with every intake option value-taking. */
CliArgs
cli(const std::vector<std::string> &tokens)
{
    std::vector<const char *> argv = {"ppm"};
    for (const std::string &t : tokens)
        argv.push_back(t.c_str());
    return CliArgs(static_cast<int>(argv.size()), argv.data(),
                   {"workload", "family", "trace-file", "seed", "input",
                    "input-file", "predictor", "max", "socket"});
}

/** `ppm client <tokens>`'s intake, or the CliError it throws. */
std::optional<Intake>
clientIntake(const std::vector<std::string> &tokens,
             IntakeForm form = IntakeForm::Request,
             const std::string &kind = "client")
{
    std::vector<std::string> all = {"client"};
    all.insert(all.end(), tokens.begin(), tokens.end());
    const CliArgs args = cli(all);
    const std::string *target = args.positionals().size() > 1
                                    ? &args.positionals()[1]
                                    : nullptr;
    return parseIntakeArgs(args, target, form, kind);
}

/** The message of the CliError @p fn throws ("" when none). */
template <typename Fn>
std::string
cliErrorOf(Fn fn)
{
    try {
        fn();
    } catch (const CliError &e) {
        return e.what();
    }
    return "";
}

TEST(Intake, CliFormRoundTripsThroughARequestLine)
{
    const std::string source = tempFile("prog.s", "halt\n");
    const std::string trace =
        tempFile("branch.trace", "0x400 T\n0x404 N\n0x400 T\n");
    const std::vector<std::vector<std::string>> forms = {
        {"--workload", "gcc"},
        {"--workload", "gcc", "--seed", "0"},
        {"--family", "branch-corr", "--seed", "7"},
        {"--family", "branch-corr"},
        {source},
        {"--trace-file", trace, "--predictor", "stride", "--max", "9"},
    };
    for (const auto &form : forms) {
        const Intake intake = *clientIntake(form);
        serve::ServeRequest req;
        req.kind = intake.kind == IntakeKind::Trace
                       ? serve::RequestKind::Trace
                       : serve::RequestKind::Analyze;
        req.intake = intake;
        req.predictors = {PredictorKind::Stride2Delta};
        req.maxInstrs = 9;
        const JsonValue doc = parseJson(serve::writeRequest(req));
        EXPECT_TRUE(serve::validateRequest(doc).empty()) << form[0];
        const serve::ServeRequest back = serve::parseRequest(doc);
        EXPECT_EQ(back.intake, intake) << form[0];
        EXPECT_EQ(back.predictors, req.predictors);
        EXPECT_EQ(back.maxInstrs, req.maxInstrs);
    }

    // The seed rule: absent means the default, given means as given.
    EXPECT_EQ(clientIntake({"--workload", "gcc"})->seedValue(),
              kDefaultWorkloadSeed);
    EXPECT_EQ(
        clientIntake({"--workload", "gcc", "--seed", "0"})->seedValue(),
        0u);
    EXPECT_EQ(clientIntake({"--family", "branch-corr"})->seedValue(), 0u);
    EXPECT_EQ(clientIntake({source})->text, "halt\n");
    EXPECT_EQ(clientIntake({"--trace-file", trace})->name, trace);
    ::unlink(source.c_str());
    ::unlink(trace.c_str());
}

TEST(Intake, EveryConflictNamesBothMembers)
{
    const std::string source = tempFile("conflict.s", "halt\n");
    const auto program = [&](std::vector<std::string> tokens) {
        return cliErrorOf([&] {
            tokens.insert(tokens.begin(), "run");
            const CliArgs args = cli(tokens);
            parseIntakeArgs(args, &args.positionals()[1],
                            IntakeForm::Program, "run");
        });
    };
    struct Case
    {
        std::string error;
        std::vector<std::string> names;
    };
    const std::vector<Case> cases = {
        {program({"compress", "--input", "abc"}),
         {"--input", "compress"}},
        {program({"compress", "--input-file", "/nonexistent"}),
         {"--input-file", "compress"}},
        {program({source, "--seed", "5"}), {"--seed", source}},
        {program({source, "--input", "1,2", "--input-file", "/x"}),
         {"--input", "--input-file"}},
        {cliErrorOf([] {
             clientIntake({"--workload", "gcc", "--trace-file", "T"});
         }),
         {"--workload", "--trace-file"}},
        {cliErrorOf([] {
             clientIntake({"--workload", "gcc", "--seed", "3"},
                          IntakeForm::None, "--ping");
         }),
         {"--ping", "--workload"}},
        {cliErrorOf([] {
             clientIntake({"--predictor", "stride"}, IntakeForm::None,
                          "--stats");
         }),
         {"--stats", "--predictor"}},
    };
    for (const Case &c : cases) {
        for (const std::string &name : c.names)
            EXPECT_NE(c.error.find(name), std::string::npos)
                << "'" << c.error << "' does not name " << name;
    }

    // A request conflict names both members.
    const auto served = [](const std::string &members) {
        const auto errors = serve::validateRequest(
            parseJson("{\"schema\":\"ppm-serve-v1\"," + members + "}"));
        std::string all;
        for (const std::string &e : errors)
            all += e + "\n";
        return all;
    };
    EXPECT_NE(served("\"kind\":\"analyze\",\"workload\":\"gcc\","
                     "\"family\":\"branch-corr\"")
                  .find("\"family\" conflicts with \"workload\""),
              std::string::npos);
    EXPECT_NE(served("\"kind\":\"analyze\",\"source\":\"halt\","
                     "\"seed\":7")
                  .find("\"seed\" conflicts with \"source\""),
              std::string::npos);
    EXPECT_NE(served("\"kind\":\"ping\",\"max_instrs\":5")
                  .find("\"max_instrs\" conflicts with \"kind\":\"ping\""),
              std::string::npos);
    ::unlink(source.c_str());
}

TEST(Intake, LabelNamesTheFingerprintSource)
{
    const auto label = [](IntakeKind kind, const std::string &name) {
        Intake intake;
        intake.kind = kind;
        intake.name = name;
        return intake.label();
    };
    EXPECT_EQ(label(IntakeKind::Workload, "gcc"), "workload:gcc");
    EXPECT_EQ(label(IntakeKind::Family, "branch-corr"), "family:branch-corr");
    EXPECT_EQ(label(IntakeKind::Source, "prog.s"), "source:prog.s");
    EXPECT_EQ(label(IntakeKind::Trace, "t.trace"), "trace:t.trace");
}

} // namespace
} // namespace ppm
