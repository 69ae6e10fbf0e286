#!/usr/bin/env bash
# End-to-end smoke of the serve daemon: start it, drive >= 32
# concurrent clients with a mixed diet (identical workload cells,
# fuzz-family programs, an imported branch trace), require every
# request to succeed and the cache hit-rate metric to be positive,
# check that served traces (the sample and its .gz beside it) match
# `ppm import` byte for byte, then check a clean SIGTERM drain.
# Shared by the serve_smoke ctest and the CI serve-smoke job:
#
#   tools/serve_smoke.sh <path-to-ppm> <path-to-sample-trace>
set -euo pipefail

PPM=${1:?usage: serve_smoke.sh <ppm-binary> <sample-trace>}
TRACE=${2:?usage: serve_smoke.sh <ppm-binary> <sample-trace>}

WORKDIR=$(mktemp -d)
SOCK="$WORKDIR/ppm.sock"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null
    rm -rf "$WORKDIR"
    return 0
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# --- exit-code contract ----------------------------------------------
"$PPM" --version | grep -q "ppm-serve-v1" \
    || fail "--version must list ppm-serve-v1"
set +e
"$PPM" serve >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve without --socket/--port must exit 2"
PPM_THREADS=notanumber "$PPM" analyze compress --max 1000 \
    >/dev/null 2>&1
[ $? -eq 2 ] || fail "malformed env must exit 2"
# Unknown options fail before any work, naming the option.
"$PPM" analyze compress --max 1000 --all-predictor \
    >/dev/null 2>"$WORKDIR/err"
[ $? -eq 2 ] || fail "a misspelled flag must exit 2"
grep -q -- "--all-predictor" "$WORKDIR/err" \
    || fail "the error must name --all-predictor"
"$PPM" analyze compress --max 1000 --bogus-flag 7 \
    >/dev/null 2>"$WORKDIR/err"
[ $? -eq 2 ] || fail "an unknown flag must exit 2"
grep -q -- "--bogus-flag" "$WORKDIR/err" \
    || fail "the error must name --bogus-flag"
# Numbers are parsed whole: a sign, an exponent, a trailing byte, a
# NaN or a value past the option's range is a usage error, reported
# before any work runs.
printf 'halt\n' > "$WORKDIR/t.s"
for args in "converge m88ksim --budgets 2e5 --threshold 1abc" \
            "converge m88ksim --threshold 1abc" \
            "converge m88ksim --threshold nan" \
            "fuzz --seeds 1-2x" \
            "run $WORKDIR/t.s --input 5x,7" \
            "run $WORKDIR/t.s --input abc" \
            "analyze compress --max -5" \
            "analyze compress --max 1e3" \
            "serve --port 70000" \
            "serve --socket $WORKDIR/unused.sock --cap -1" \
            "serve --socket $WORKDIR/unused.sock --max-inflight 4294967296" \
            "client --port 65536 --ping"; do
    # shellcheck disable=SC2086 # word splitting is the point here
    "$PPM" $args >/dev/null 2>"$WORKDIR/err"
    [ $? -eq 2 ] || fail "ppm $args must exit 2"
done
grep -q -- "option --port wants" "$WORKDIR/err" \
    || fail "a bad number must name its option"
# One intake, checked before any work: a second intake, a seed or an
# input the intake does not read, or an intake on a request that reads
# none exits 2 naming both options (ARGS|FIRST|SECOND).
for case in "run compress --input abc --max 10|--input|compress" \
            "analyze compress --input-file /nonexistent --max 1000|--input-file|compress" \
            "run $WORKDIR/t.s --seed 5|--seed|$WORKDIR/t.s" \
            "run $WORKDIR/t.s --input 1,2 --input-file /nonexistent|--input |--input-file" \
            "client --socket $SOCK --workload gcc --trace-file $TRACE|--workload|--trace-file" \
            "client --socket $SOCK --ping --workload gcc --seed 3|--ping|--workload"; do
    IFS='|' read -r args first second <<< "$case"
    # shellcheck disable=SC2086 # word splitting is the point here
    "$PPM" $args >/dev/null 2>"$WORKDIR/err"
    [ $? -eq 2 ] || fail "ppm $args must exit 2"
    grep -q -- "$first" "$WORKDIR/err" && grep -q -- "$second" "$WORKDIR/err" \
        || fail "ppm $args must name $first and $second"
done
"$PPM" run "$WORKDIR/t.s" --input -5,0x10 >/dev/null \
    || fail "signed and hex --input values must be accepted"
set -e
# Value-taking options are per command: `metrics --json` is a flag
# wherever it stands, so both spellings analyze gcc (and match the
# spelling with --json last), while `client --json REQ` still takes
# REQ as its value (driven against the daemon below).
pred_counters() { grep -o '"pred\.[a-z_]*":[0-9]*' || true; }
"$PPM" metrics gcc --max 2000 --json | pred_counters > "$WORKDIR/gcc.ref"
grep -q '"pred.branch_lookups"' "$WORKDIR/gcc.ref" \
    || fail "metrics --json printed no pred.* counters"
for args in "--json gcc --max 2000" "gcc --json --max 2000"; do
    # shellcheck disable=SC2086 # word splitting is the point here
    "$PPM" metrics $args > "$WORKDIR/metrics.out" \
        || fail "ppm metrics $args must exit 0"
    pred_counters < "$WORKDIR/metrics.out" | cmp -s - "$WORKDIR/gcc.ref" \
        || fail "ppm metrics $args must report gcc's counters"
done

# --- start the daemon ------------------------------------------------
"$PPM" serve --socket "$SOCK" --max-inflight 48 \
    > "$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died at startup"
    sleep 0.1
done
[ -S "$SOCK" ] || fail "socket never appeared"

# --- concurrent mixed load -------------------------------------------
# 36 concurrent client processes: 12 identical workload cells (these
# must hit the retained capture), 12 fuzz-family programs across two
# families and two seeds, 12 imported-branch-trace requests.
PIDS=()
for i in $(seq 1 12); do
    "$PPM" client --socket "$SOCK" --workload compress --max 60000 \
        --id "wl-$i" > "$WORKDIR/wl-$i.out" 2>&1 &
    PIDS+=($!)
    if [ $((i % 2)) -eq 0 ]; then fam=branch-corr; else fam=pointer-chase; fi
    "$PPM" client --socket "$SOCK" --family "$fam" \
        --seed $((1 + i % 2)) --predictor context \
        --id "fam-$i" > "$WORKDIR/fam-$i.out" 2>&1 &
    PIDS+=($!)
    "$PPM" client --socket "$SOCK" --trace-file "$TRACE" \
        --predictor context --id "tr-$i" \
        > "$WORKDIR/tr-$i.out" 2>&1 &
    PIDS+=($!)
done

FAILED=0
for pid in "${PIDS[@]}"; do
    wait "$pid" || FAILED=$((FAILED + 1))
done
[ "$FAILED" -eq 0 ] || fail "$FAILED of ${#PIDS[@]} client runs failed"

BAD=$(grep -L '"status":"ok"' "$WORKDIR"/wl-*.out \
      "$WORKDIR"/fam-*.out "$WORKDIR"/tr-*.out || true)
[ -z "$BAD" ] || fail "non-ok response in: $BAD"

# --- served traces equal `ppm import`, plain or gzip'd ---------------
# The served "fingerprint" member embeds import's document verbatim.
for t in "$TRACE" "$TRACE.gz"; do
    "$PPM" import "$t" > "$WORKDIR/import.fp" 2>/dev/null \
        || fail "ppm import $t must exit 0"
    "$PPM" client --socket "$SOCK" --trace-file "$t" \
        > "$WORKDIR/served.out" || fail "client --trace-file $t must exit 0"
    grep -qF "\"fingerprint\":$(cat "$WORKDIR/import.fp")," \
        "$WORKDIR/served.out" \
        || fail "served fingerprint of $t differs from ppm import's"
done

# --- --count exit-code aggregation -----------------------------------
# A --count batch exits 0 only when every response is ok; any failing
# response in the batch (here: every one, an unknown workload) must
# surface as a non-zero exit even though all N responses printed.
"$PPM" client --socket "$SOCK" --workload compress --max 60000 \
    --count 3 --id batch > "$WORKDIR/batch-ok.out" \
    || fail "all-ok --count batch must exit 0"
[ "$(grep -c '"status":"ok"' "$WORKDIR/batch-ok.out")" -eq 3 ] \
    || fail "--count 3 must print 3 ok responses"
set +e
"$PPM" client --socket "$SOCK" --workload no-such-workload \
    --count 2 --id bad > "$WORKDIR/batch-bad.out" 2>&1
RC=$?
set -e
[ "$RC" -ne 0 ] || fail "failing --count batch must exit non-zero"
[ "$(grep -c '"status":"error"' "$WORKDIR/batch-bad.out")" -eq 2 ] \
    || fail "failing batch must still print every response"

# --- client --json REQ sends REQ verbatim -----------------------------
"$PPM" client --socket "$SOCK" \
    --json '{"schema":"ppm-serve-v1","kind":"ping","id":"raw"}' \
    > "$WORKDIR/raw.out" || fail "client --json REQ must exit 0"
grep -q '"id":"raw"' "$WORKDIR/raw.out" \
    || fail "client --json REQ must send REQ as the request"

# --- exported cache hit-rate -----------------------------------------
STATS=$("$PPM" client --socket "$SOCK" --stats)
echo "$STATS"
if echo "$STATS" | grep -q '"capture_hits":0,'; then
    fail "expected capture hits from identical workload cells"
fi
if echo "$STATS" | grep -q '"hit_rate_pct":0\.00'; then
    fail "hit-rate metric must be > 0"
fi

# --- graceful SIGTERM drain ------------------------------------------
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
RC=$?
set -e
[ "$RC" -eq 0 ] || fail "daemon exited $RC after SIGTERM"
grep -q "drained" "$WORKDIR/serve.log" || fail "no drain banner in log"
if [ -S "$SOCK" ]; then
    fail "socket file not removed on drain"
fi
SERVE_PID=""

echo "serve_smoke: OK (${#PIDS[@]} concurrent requests served)"
