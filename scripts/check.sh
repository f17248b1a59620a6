#!/usr/bin/env sh
# Repo check script: tests, a live observability smoke run, and lint.
# No make required; run from anywhere:  sh scripts/check.sh
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== pytest =="
python -m pytest -x -q

echo "== benchmark self-tests (every perfbench workload at tiny size) =="
# They drive each workload through the same public calls the benchmark
# times and patches, and fail on a corrupted stream, so a change that
# breaks a workload, its output check or a patched name (such as
# StreamSegmenter.ingest) fails here instead of in the next benchmark run.
python3 -m pytest perfbench -q

echo "== paper shape checks (figures, tables, ablations, extensions) =="
# The reproduction's own checks in benchmarks/ (test_fig*, test_tab1_*,
# test_abl_*, test_ext_*) sit outside testpaths; the hot-path bench runs
# in its own step below.
python -m pytest benchmarks/ --ignore benchmarks/test_perf_hotpath.py --benchmark-disable -q

echo "== repro stats --fast (observability smoke test) =="
python -m repro stats --fast > /tmp/repro-stats-smoke.$$ 2>&1 || {
    cat /tmp/repro-stats-smoke.$$
    rm -f /tmp/repro-stats-smoke.$$
    echo "repro stats --fast failed" >&2
    exit 1
}
# The smoke run must surface every pipeline stage span.
for stage in unwrap suppression imaging otsu classify direction segmentation grammar; do
    if ! grep -q "$stage" /tmp/repro-stats-smoke.$$; then
        rm -f /tmp/repro-stats-smoke.$$
        echo "stats output is missing the '$stage' span" >&2
        exit 1
    fi
done
# The streaming leg of the battery must surface the stream layer's spans.
for span in stream.chunk stream.finalize; do
    if ! grep -q "$span" /tmp/repro-stats-smoke.$$; then
        rm -f /tmp/repro-stats-smoke.$$
        echo "stats output is missing the '$span' span" >&2
        exit 1
    fi
done
rm -f /tmp/repro-stats-smoke.$$
echo "ok"

echo "== replay --stream (streaming smoke test) =="
# Record a letter capture, replay it chunk-by-chunk through the streaming
# session, and check stroke events plus the final letter come out.
capture=/tmp/repro-stream-smoke.$$.jsonl
python -m repro record "$capture" --letter T > /dev/null
python -m repro replay "$capture" --stream > /tmp/repro-stream-smoke.$$ 2>&1 || {
    cat /tmp/repro-stream-smoke.$$
    rm -f /tmp/repro-stream-smoke.$$ "$capture" "$capture.calibration"
    echo "repro replay --stream failed" >&2
    exit 1
}
for needle in "stroke window" "letter: 'T'"; do
    if ! grep -q "$needle" /tmp/repro-stream-smoke.$$; then
        cat /tmp/repro-stream-smoke.$$
        rm -f /tmp/repro-stream-smoke.$$ "$capture" "$capture.calibration"
        echo "replay --stream output is missing $needle" >&2
        exit 1
    fi
done
rm -f /tmp/repro-stream-smoke.$$ "$capture" "$capture.calibration"
echo "ok"

echo "== hot-path benchmark (smoke mode, with regression floor) =="
# Appends a smoke entry to BENCH_pipeline.json and FAILS if the engine
# wall regresses more than 2x over the best recorded smoke entry.
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/test_perf_hotpath.py -q

echo "== parallel throughput gate (parallel(4) vs serial) =="
# The regression this gate pins down: a warmed 4-worker battery must
# never fall behind the plain serial loop again.  Reads the entry the
# smoke bench just appended.
python - <<'PY'
import json, sys

with open("BENCH_pipeline.json", encoding="utf-8") as fh:
    entry = json.load(fh)["entries"][-1]
serial = entry.get("serial_trials_per_s")
parallel4 = entry.get("parallel_trials_per_s_workers4")
if serial is None or parallel4 is None:
    sys.exit("bench entry is missing serial/parallel throughput keys")
if parallel4 < serial:
    sys.exit(
        f"parallel(4) throughput {parallel4} trials/s fell below "
        f"serial {serial} trials/s"
    )
print(f"parallel(4) {parallel4} >= serial {serial} trials/s")
PY

echo "== repro top --once (health-rule smoke test) =="
# One observed battery, evaluated against the shipped rule set; a failed
# Fig. 24 budget (or any 'fail' rule) makes this exit nonzero.
python -m repro top --once --fast --rules scripts/health_rules.json \
    > /tmp/repro-top-smoke.$$ 2>&1 || {
    cat /tmp/repro-top-smoke.$$
    rm -f /tmp/repro-top-smoke.$$
    echo "repro top --once reported a health failure" >&2
    exit 1
}
grep -q "== health ==" /tmp/repro-top-smoke.$$ || {
    rm -f /tmp/repro-top-smoke.$$
    echo "top output is missing the health table" >&2
    exit 1
}
rm -f /tmp/repro-top-smoke.$$
echo "ok"

echo "== health-rule self-check =="
# The shipped rule file must validate; a malformed file must be rejected.
python -m repro top --validate-rules scripts/health_rules.json
echo '[{"name": "bad", "kind": "vibes", "target": "g", "threshold": 1}]' \
    > /tmp/repro-bad-rules.$$.json
if python -m repro top --validate-rules /tmp/repro-bad-rules.$$.json \
    > /dev/null 2>&1; then
    rm -f /tmp/repro-bad-rules.$$.json
    echo "malformed rule file was not rejected" >&2
    exit 1
fi
rm -f /tmp/repro-bad-rules.$$.json
echo "ok"

echo "== serve-metrics scrape (Prometheus endpoint smoke test) =="
# Start the scrape server on an ephemeral port, pull one /metrics
# snapshot, and lint it against the exposition format; --max-requests 1
# makes the server exit on its own after the scrape.
serve_log=/tmp/repro-serve-smoke.$$
python -m repro serve-metrics --port 0 --populate --max-requests 1 \
    > "$serve_log" 2>&1 &
serve_pid=$!
if python - "$serve_log" "$serve_pid" <<'PY'
import re, sys, time, urllib.request

log_path, pid = sys.argv[1], int(sys.argv[2])
deadline = time.time() + 120.0
port = None
while time.time() < deadline and port is None:
    try:
        with open(log_path, encoding="utf-8") as fh:
            m = re.search(r"http://[^:]+:(\d+)/metrics", fh.read())
        if m:
            port = int(m.group(1))
    except OSError:
        pass
    time.sleep(0.2)
if port is None:
    sys.exit("serve-metrics never printed its address")
with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as resp:
    ctype = resp.headers["Content-Type"]
    body = resp.read().decode("utf-8")
if "version=0.0.4" not in ctype:
    sys.exit(f"unexpected scrape content type: {ctype}")
sys.path.insert(0, "src")
from repro.obs.export import lint_exposition

problems = lint_exposition(body)
if problems:
    sys.exit("scrape failed exposition lint:\n" + "\n".join(problems))
if "repro_runner_motion_trials_total" not in body:
    sys.exit("scrape is missing the populated battery counters")
print(f"scraped {len(body.splitlines())} exposition lines from :{port}")
PY
then
    wait "$serve_pid" || {
        cat "$serve_log"
        rm -f "$serve_log"
        echo "serve-metrics exited nonzero" >&2
        exit 1
    }
    rm -f "$serve_log"
    echo "ok"
else
    kill "$serve_pid" 2> /dev/null || true
    cat "$serve_log"
    rm -f "$serve_log"
    echo "metrics scrape failed" >&2
    exit 1
fi

echo "== serve hub smoke (repro serve + feed + loadgen + scrape) =="
# Start the serving hub on ephemeral ports, feed a recorded capture
# through it, drive a few concurrent synthetic sessions, scrape
# /metrics for the serve counters, then SIGINT for a graceful drain.
hub_log=/tmp/repro-hub-smoke.$$
capture=/tmp/repro-hub-capture.$$.jsonl
python -m repro record "$capture" --letter T > /dev/null
python -m repro serve --port 0 --metrics-port 0 > "$hub_log" 2>&1 &
hub_pid=$!
hub_port=$(python - "$hub_log" <<'PY'
import re, sys, time

deadline = time.time() + 120.0
while time.time() < deadline:
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            m = re.search(r"serving pad sessions on [^:]+:(\d+)", fh.read())
        if m:
            print(m.group(1))
            sys.exit(0)
    except OSError:
        pass
    time.sleep(0.2)
sys.exit("serve never printed its address")
PY
) || {
    kill "$hub_pid" 2> /dev/null || true
    cat "$hub_log"
    rm -f "$hub_log" "$capture" "$capture.calibration"
    echo "repro serve failed to start" >&2
    exit 1
}
hub_fail=""
python -m repro feed "$capture" --port "$hub_port" --no-pace \
    > /tmp/repro-feed-smoke.$$ 2>&1 || hub_fail="repro feed failed"
if [ -z "$hub_fail" ]; then
    grep -q "letter: 'T'" /tmp/repro-feed-smoke.$$ \
        || hub_fail="feed output is missing the final letter event"
fi
if [ -z "$hub_fail" ]; then
    python -m repro loadgen --port "$hub_port" --sessions 3 --distinct 1 \
        --no-pace --json > /tmp/repro-loadgen-smoke.$$ 2>&1 \
        || hub_fail="repro loadgen failed"
fi
if [ -z "$hub_fail" ]; then
    python - /tmp/repro-loadgen-smoke.$$ "$hub_log" <<'PY' || hub_fail="serve smoke assertions failed"
import json, re, sys, urllib.request

with open(sys.argv[1], encoding="utf-8") as fh:
    result = json.loads(fh.read().splitlines()[-1])
if result["completed"] != result["sessions"] or result["failed"]:
    sys.exit(f"loadgen sessions failed: {result}")
if result["letters_expected"] != result["completed"]:
    sys.exit(f"loadgen letters wrong: {result}")
with open(sys.argv[2], encoding="utf-8") as fh:
    m = re.search(r"metrics on http://[^:]+:(\d+)/metrics", fh.read())
if m is None:
    sys.exit("serve never printed its metrics address")
with urllib.request.urlopen(
    f"http://127.0.0.1:{m.group(1)}/metrics", timeout=30
) as resp:
    body = resp.read().decode("utf-8")
for needle in (
    "repro_serve_sessions_opened_total",
    "repro_serve_chunks_total",
    "repro_serve_batches_total",
):
    if needle not in body:
        sys.exit(f"/metrics scrape is missing {needle}")
print("serve smoke: sessions, letters, and serve_* counters all present")
PY
fi
kill -INT "$hub_pid" 2> /dev/null || true
wait "$hub_pid" || [ -n "$hub_fail" ] || hub_fail="serve did not drain cleanly on SIGINT"
if [ -z "$hub_fail" ]; then
    grep -q "draining open sessions" "$hub_log" \
        || hub_fail="serve log is missing the graceful-drain notice"
fi
if [ -n "$hub_fail" ]; then
    cat "$hub_log" /tmp/repro-feed-smoke.$$ /tmp/repro-loadgen-smoke.$$ 2> /dev/null
    rm -f "$hub_log" "$capture" "$capture.calibration" \
        /tmp/repro-feed-smoke.$$ /tmp/repro-loadgen-smoke.$$
    echo "$hub_fail" >&2
    exit 1
fi
rm -f "$hub_log" "$capture" "$capture.calibration" \
    /tmp/repro-feed-smoke.$$ /tmp/repro-loadgen-smoke.$$
echo "ok"

echo "== serving throughput gate (200 concurrent sessions, p95 < 150 ms) =="
# Reads the entry the smoke bench appended above: the serving leg must
# have sustained the acceptance concurrency under the latency budget.
python - <<'PY'
import json, sys

with open("BENCH_pipeline.json", encoding="utf-8") as fh:
    entry = json.load(fh)["entries"][-1]
concurrent = entry.get("serve_concurrent_sessions")
rate = entry.get("serve_sessions_per_s")
p95 = entry.get("serve_event_p95_ms")
if concurrent is None or rate is None or p95 is None:
    sys.exit("bench entry is missing the serve_* keys")
if concurrent < 200:
    sys.exit(f"serving leg peaked at {concurrent} concurrent sessions (< 200)")
if p95 >= 150.0:
    sys.exit(f"serving letter-event p95 {p95} ms breaches the 150 ms budget")
if entry.get("serve_dropped_chunks"):
    sys.exit(f"serving leg shed {entry['serve_dropped_chunks']} chunk(s)")
print(f"serve: {concurrent:.0f} concurrent, {rate} sessions/s, p95 {p95} ms")
PY

echo "== workspace smoke (repro live --workspace 2x1, stitched letter) =="
# A tiled 2x1 workspace session end to end: per-tile streams, cross-pad
# stitching, and the fig25 trajectory-error score on the merged log.
python -m repro live --workspace 2x1 --letter L > /tmp/repro-ws-smoke.$$ 2>&1 || {
    cat /tmp/repro-ws-smoke.$$
    rm -f /tmp/repro-ws-smoke.$$
    echo "repro live --workspace failed" >&2
    exit 1
}
for needle in "from 2 tiles" "letter: 'L'" "stitched" "trajectory error"; do
    if ! grep -q "$needle" /tmp/repro-ws-smoke.$$; then
        cat /tmp/repro-ws-smoke.$$
        rm -f /tmp/repro-ws-smoke.$$
        echo "workspace smoke output is missing $needle" >&2
        exit 1
    fi
done
rm -f /tmp/repro-ws-smoke.$$
echo "ok"

echo "== multipad gate (throughput + stitch error, vs recorded history) =="
# Reads the entry the smoke bench appended: the multiplexed-pad leg must
# keep its throughput within 2x of the best recorded same-size entry and
# hold the stitched trajectory inside the 8 cm budget.
python - <<'PY'
import json, sys

with open("BENCH_pipeline.json", encoding="utf-8") as fh:
    doc = json.load(fh)
entry = doc["entries"][-1]
tps = entry.get("multipad_trials_per_s")
err = entry.get("stitch_trajectory_err_cm")
if tps is None or err is None:
    sys.exit("bench entry is missing the multipad_* / stitch_* keys")
if not entry.get("multipad_boundary_letter_ok"):
    sys.exit("2x1 workspace failed its boundary-crossing letter")
if err >= 8.0:
    sys.exit(f"stitched trajectory error {err} cm breaches the 8 cm budget")
prior = [
    e["multipad_trials_per_s"]
    for e in doc["entries"][:-1]
    if e.get("smoke") == entry.get("smoke")
    and e.get("multipad_trials_per_s")
]
if prior and tps < max(prior) / 2.0:
    sys.exit(
        f"multipad throughput {tps} trials/s regressed more than 2x "
        f"below the best recorded entry ({max(prior)})"
    )
print(f"multipad: {tps} trials/s, stitch error {err} cm")
PY

echo "== ruff =="
if command -v ruff > /dev/null 2>&1; then
    ruff check src tests
elif python -c "import ruff" > /dev/null 2>&1; then
    python -m ruff check src tests
else
    echo "ruff not installed; skipping lint (pip install ruff to enable)"
fi

echo "all checks passed"
