/**
 * @file
 * Report-layer tests: JSON emission and cross-seed robustness of the
 * headline results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/figure_report.hh"
#include "report/json_emitter.hh"
#include "support/mini_json.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

DpgStats
smallRun(PredictorKind kind = PredictorKind::Stride2Delta)
{
    ExperimentConfig config;
    config.dpg.kind = kind;
    return runModelOnSource(R"(
        li $8, 200
l:      li $4, 7
        addi $5, $4, 1
        slti $6, $8, 100
        beqz $6, skip
        xor  $7, $5, $8
skip:   addi $8, $8, -1
        bnez $8, l
        halt
)",
                            "jsonix", {}, config);
}

TEST(Json, EscapesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\ny"), "x\\ny");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, DocumentIsBalancedAndComplete)
{
    const std::string doc = toJson(smallRun());

    // Structural balance (no strings in our output contain braces).
    long depth = 0;
    for (char c : doc) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // The required sections all appear.
    for (const char *key :
         {"\"workload\"", "\"predictor\"", "\"node_classes\"",
          "\"arc_cells\"", "\"overall_pct\"", "\"paths\"",
          "\"branches\"", "\"unpredictability\"",
          "\"tree_longest_cumulative\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    EXPECT_NE(doc.find("\"workload\":\"jsonix\""),
              std::string::npos);
}

TEST(Json, NumbersRoundTrip)
{
    const DpgStats stats = smallRun();
    const std::string doc = toJson(stats);
    EXPECT_NE(doc.find("\"dyn_instrs\":" +
                       std::to_string(stats.dynInstrs)),
              std::string::npos);
    EXPECT_NE(doc.find("\"arcs\":" +
                       std::to_string(stats.arcs.total())),
              std::string::npos);
}

// The cross-path tests compare runs through toJson, so they cannot see
// the document itself drift; these bytes pin it.
TEST(Json, DocumentBytesArePinned)
{
    EXPECT_EQ(
        toJson(smallRun()),
        "{\"workload\":\"jsonix\",\"predictor\":\"stride\",\"dyn_instr"
        "s\":1301,\"nodes\":1301,\"arcs\":1198,\"data_nodes\":0,\"data"
        "_arcs\":0,\"gshare_accuracy\":0.9275,\"node_classes\":{\"i,i-"
        ">p\":199,\"n,n->p\":0,\"i,n->p\":2,\"p,p->p\":84,\"p,i->p\":9"
        "63,\"p,n->p\":0,\"p,p->n\":12,\"p,i->n\":25,\"p,n->n\":2,\"n-"
        ">n\":13,\"inert\":1},\"arc_cells\":{\"<1:n,n>\":12,\"<1:n,p>"
        "\":2,\"<1:p,n>\":4,\"<1:p,p>\":1180},\"overall_pct\":{\"node_"
        "gen\":8.04322,\"node_prop\":41.8968,\"node_term\":1.56062,\"a"
        "rc_gen\":0.080032,\"arc_prop\":47.2189,\"arc_term\":0.160064}"
        ",\"paths\":{\"C\":1729,\"D\":0,\"W\":0,\"I\":580,\"N\":0,\"M"
        "\":2,\"propagate_elements\":2227,\"saturation_events\":0},\"t"
        "ree_longest_cumulative\":[{\"high\":1,\"cumulative\":0.009852"
        "22},{\"high\":2,\"cumulative\":0.512315},{\"high\":4,\"cumula"
        "tive\":0.995074},{\"high\":8,\"cumulative\":0.995074},{\"high"
        "\":16,\"cumulative\":0.995074},{\"high\":32,\"cumulative\":0."
        "995074},{\"high\":64,\"cumulative\":0.995074},{\"high\":128,"
        "\"cumulative\":0.995074},{\"high\":256,\"cumulative\":0.99507"
        "4},{\"high\":512,\"cumulative\":1}],\"influence_distance_cumu"
        "lative\":[{\"high\":1,\"cumulative\":0.091154},{\"high\":2,\""
        "cumulative\":0.182308},{\"high\":4,\"cumulative\":0.229008},{"
        "\"high\":8,\"cumulative\":0.234396},{\"high\":16,\"cumulative"
        "\":0.246071},{\"high\":32,\"cumulative\":0.274809},{\"high\":"
        "64,\"cumulative\":0.332286},{\"high\":128,\"cumulative\":0.44"
        "7238},{\"high\":256,\"cumulative\":0.694656},{\"high\":512,\""
        "cumulative\":1}],\"branches\":{\"p,p->p\":0,\"p,p->n\":0,\"p,"
        "i->p\":371,\"p,i->n\":24,\"p,n->p\":0,\"p,n->n\":0,\"i,i->p\""
        ":0,\"i,i->n\":0,\"i,n->p\":0,\"i,n->n\":5,\"n,n->p\":0,\"n,n-"
        ">n\":0},\"unpredictability\":{\"T\":41,\"F\":11}}\n");
}

TEST(Printers, EveryFigurePrinterProducesItsTable)
{
    const DpgStats base = smallRun();
    std::vector<RunResult> runs;
    RunResult r;
    r.stats = base;
    runs.push_back(std::move(r));

    struct Case
    {
        const char *needle;
        std::function<void(std::ostream &)> print;
    };
    const std::vector<Case> cases = {
        {"Table 1",
         [&](std::ostream &os) { printTable1(os, runs); }},
        {"Fig. 5", [&](std::ostream &os) { printFig5(os, runs); }},
        {"Fig. 6", [&](std::ostream &os) { printFig6(os, runs); }},
        {"Fig. 7", [&](std::ostream &os) { printFig7(os, runs); }},
        {"Fig. 8", [&](std::ostream &os) { printFig8(os, runs); }},
        {"Fig. 9", [&](std::ostream &os) { printFig9(os, runs); }},
        {"Fig. 10",
         [&](std::ostream &os) { printFig10(os, base); }},
        {"Fig. 11",
         [&](std::ostream &os) { printFig11(os, base); }},
        {"Fig. 12",
         [&](std::ostream &os) { printFig12(os, runs); }},
        {"Fig. 13",
         [&](std::ostream &os) { printFig13(os, runs); }},
    };
    for (const auto &c : cases) {
        std::ostringstream os;
        c.print(os);
        EXPECT_NE(os.str().find(c.needle), std::string::npos)
            << c.needle;
        EXPECT_GT(os.str().size(), 40u) << c.needle;
    }
}

TEST(SeedRobustness, HeadlinePercentagesStableAcrossSeeds)
{
    // The figure results must be properties of the workload's
    // *structure*, not of one particular random input. Run compress
    // with three different seeds and require the propagation share
    // to stay within a few points.
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);

    std::vector<double> props;
    for (std::uint64_t seed : {1ull, 42ull, 31337ull}) {
        ExperimentConfig config;
        config.maxInstrs = 400'000;
        config.dpg.kind = PredictorKind::Context;
        config.dpg.trackInfluence = false;
        const DpgStats stats =
            runModel(prog, w.makeInput(seed), config);
        const double denom =
            static_cast<double>(stats.totalElements());
        props.push_back(100.0 *
                        double(stats.nodes.propagates() +
                               stats.arcs.propagates()) /
                        denom);
    }
    const double spread =
        *std::max_element(props.begin(), props.end()) -
        *std::min_element(props.begin(), props.end());
    EXPECT_LT(spread, 6.0) << props[0] << " " << props[1] << " "
                           << props[2];
}

} // namespace
} // namespace ppm
