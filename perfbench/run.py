#!/usr/bin/env python3
"""The ppm benchmark: one workload per invocation, run from the root of
a source checkout.

    python3 perfbench/run.py --workload paper_suite --seed 0 \
        --seconds 20 --trace 0

Builds perfbench/ (the ppm library plus the ppm_perfbench driver) into
.bench_build/perfbench on first use, runs the workload, checks its
outputs and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set; with --trace 1 the
workload runs twice, untraced and then with span and metrics export,
and the metrics are the per_layer set. The span export is validated
with ppm_obs_check. Exits non-zero when any check fails.

--tiny shrinks every workload to a smoke size and --expect-digest
replaces the recorded digest (selftest.py uses both).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_suite", "serve_mixed", "sampled_100m")

# sha256 of paper_suite's rendered text at seed 0, equal to the ten
# paper drivers' concatenated stdout (PPM_QUICK=1 for the tiny size),
# and of sampled_100m's fingerprint.
DIGESTS = {
    (False, "paper_suite"):
        "2b71ea09b5f7610c8092151c9dd1209d387bcdb5d9bcb64b9bd5e759f12936c7",
    (True, "paper_suite"):
        "c50486de9d26e66af0c95e195c08af007f8da387a65660e6543504efde92750f",
    (False, "sampled_100m"):
        "13728c414dbd08a05fa860e402785b17f3739c4dfac1a6f38f6c06368c71f41c",
    (True, "sampled_100m"):
        "13b84b29cb637da5b083275929e593768ffa47d9219b1e719ff4144d3dfc8c97",
}

# The only complaints ppm_obs_check may raise on a sampled export: the
# engine's sampled path emits no job/analyze/simulate spans and no
# capture lookups, which its consistency rules expect of every pass.
SAMPLED_OBS_GAP = "ppm_obs_check: consistency: "


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; exits 1 on failure."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j4", "--target",
                  "ppm_perfbench", "ppm_obs_check"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)


def run_driver(cmd, deadline, env=None):
    """Run ppm_perfbench; returns its parsed result or exits 1."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log("run.py: timed out:", " ".join(cmd))
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log("run.py: driver failed with code", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--expect-digest")
    args = ap.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    build(build_dir)
    # Both driver processes of a run share one budget under 180 s.
    deadline = time.monotonic() + 170

    # Relative paths keep the server's Unix socket path short.
    work = Path(os.path.relpath(build_dir / "run", root))
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    digest_out = work / f"digest-{tag}.txt"
    base = [str(build_dir / "ppm_perfbench"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work-dir", str(work), "--digest-out", str(digest_out)]
    if args.tiny:
        base.append("--tiny")

    runs = [run_driver(base, deadline)]
    trace_files = []
    if args.trace:
        trace_files = [work / f"trace-{tag}.json",
                       work / f"metrics-{tag}.json"]
        env = dict(os.environ, PPM_TRACE_JSON=str(trace_files[0]),
                   PPM_METRICS=str(trace_files[1]))
        runs.append(run_driver(base + ["--layers"], deadline, env=env))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            log("run.py: check failed:", what)

    # Recorded digests. paper_suite's inputs equal the drivers' only at
    # seed 0; sampled_100m's stream does not depend on the seed.
    want = args.expect_digest or DIGESTS.get((args.tiny, args.workload))
    if (args.workload == "paper_suite" and args.seed == 0) or \
            args.workload == "sampled_100m":
        check(sha256(digest_out) == want, f"{args.workload} output digest")

    if args.trace:
        proc = subprocess.run([str(build_dir / "ppm_obs_check")] +
                              [str(f) for f in trace_files],
                              stdout=sys.stderr, stderr=subprocess.PIPE,
                              text=True)
        complaints = [l for l in proc.stderr.splitlines()
                      if l and not l.endswith("failure(s)")]
        log(proc.stderr.rstrip())
        known_gap = args.workload == "sampled_100m" and all(
            l.startswith(SAMPLED_OBS_GAP) for l in complaints)
        check(proc.returncode == 0 or known_gap, "ppm_obs_check")
        untraced = runs[0]["metrics"]["wall_s"]["value"]
        traced = runs[1]["metrics"]["wall_s"]["value"]
        runs[1]["metrics"]["obs.trace_overhead_pct"] = {
            "value": 100.0 * (traced - untraced) / untraced, "unit": "%"}

    for f in [digest_out] + trace_files:
        f.unlink(missing_ok=True)

    measured = runs[-1]["metrics"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("run.py: metric missing or in the wrong unit:", m["name"])
            sys.exit(1)
        metrics[m["name"]] = got
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
