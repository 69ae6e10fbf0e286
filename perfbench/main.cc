/**
 * @file
 * ppm_perfbench — one workload of the ppm benchmark per process.
 *
 *   ppm_perfbench <paper_suite|serve_mixed|sampled_100m>
 *       [--seed N] [--seconds S] [--layers] [--tiny]
 *       [--work-dir DIR] [--digest-out FILE]
 *
 * Run from the root of a source checkout (the serve workload reads
 * tests/data/sample_branch.trace).
 *
 * Prints one JSON object on stdout: the operations checked and failed
 * and every metric measured, each with its unit. run.py builds this
 * binary, picks the metrics BENCHMARK.json names and checks the
 * recorded digests.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hh"

namespace {

using namespace ppm::perfbench;

int
usage()
{
    std::cerr << "usage: ppm_perfbench <paper_suite|serve_mixed|"
                 "sampled_100m> [--seed N] [--seconds S] [--layers] "
                 "[--tiny] [--work-dir DIR] [--digest-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Options opts;
    opts.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--layers") {
            opts.layers = true;
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--seed" && hasValue) {
            opts.seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds" && hasValue) {
            opts.seconds = std::stod(argv[++i]);
        } else if (arg == "--work-dir" && hasValue) {
            opts.workDir = argv[++i];
        } else if (arg == "--digest-out" && hasValue) {
            opts.digestOut = argv[++i];
        } else {
            return usage();
        }
    }

    Result r;
    try {
        if (opts.workload == "paper_suite")
            r = runPaperSuite(opts);
        else if (opts.workload == "serve_mixed")
            r = runServeMixed(opts);
        else if (opts.workload == "sampled_100m")
            r = runSampled100m(opts);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "ppm_perfbench: " << e.what() << "\n";
        return 1;
    }

    std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                      ",\"failed\":" + std::to_string(r.failed) +
                      ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, metric] : r.metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.first);
        out += std::string(first ? "" : ",") + "\"" + name +
               "\":{\"value\":" + value + ",\"unit\":\"" + metric.second +
               "\"}";
        first = false;
    }
    std::cout << out << "}}" << std::endl;
    return 0;
}
