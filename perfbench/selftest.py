#!/usr/bin/env python3
"""Self-test of the ppm benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and asserts
that
  - every run passes its output checks and prints every metric of the
    benchmark's documented set, each with its unit;
  - the printed names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) sets;
  - a deliberately wrong expected digest makes the run fail.
Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_suite", "serve_mixed", "sampled_100m")

# The documented metric set (perfbench/README.md). Failed operations
# are reported as the result's "failed" of "attempted".
END_TO_END = {"setup_s", "wall_s", "req_p50_ms", "req_p95_ms", "req_per_s",
              "peak_rss_mb"}
PER_LAYER = {
    "asmr.assemble_ms", "asmr.programs", "sim.minstr_per_s",
    "runner.simulate_s", "runner.analyze_s", "runner.dispatch_s",
    "runner.queue_ms_p50", "runner.capture_overhead_s",
    "runner.simulations", "runner.passes", "runner.cache_hit_ratio",
    "runner.cache_lookups", "runner.retained_mb", "runner.evictions",
    "pred.last_ns_per_instr", "pred.stride_ns_per_instr",
    "pred.context_ns_per_instr", "dpg.graph_ns_per_instr",
    "dpg.arcs_ns_per_instr", "dpg.influence_ns_per_instr",
    "dpg.full_ns_per_instr", "dpg.role_gap_pct", "sample.profile_s",
    "sample.checkpoint_s", "sample.fastforward_s", "sample.measure_s",
    "sample.measured_instrs", "sample.checkpoint_mb",
    "serve.overhead_ms_p50", "serve.queue_ms_p95", "serve.trace_ms_p50",
    "serve.overloaded", "report.render_ms", "obs.trace_overhead_pct",
}


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(ok, what):
    if not ok:
        print("selftest: FAIL:", what, file=sys.stderr)
        sys.exit(1)
    print("selftest: ok:", what, file=sys.stderr)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for kind, documented in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
        names = {m["name"] for m in spec[kind]}
        expect(names == documented,
               f"BENCHMARK.json {kind} names match the documented set")

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(rc == 0 and result and result["correct"] and
                   result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} passes its output checks")
            units = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m.get("unit") for name, m in
                   result["metrics"].items()}
            expect(got == units,
                   f"{label} prints exactly the {kind} names and units")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label} prints a number for every metric")

    for workload in ("paper_suite", "sampled_100m"):
        rc, result = run(workload, 0, "--expect-digest", "0" * 64)
        expect(rc != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{workload} fails on a wrong expected digest")


if __name__ == "__main__":
    main()
