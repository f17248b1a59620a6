#!/usr/bin/env sh
# Hot-path performance benchmark: times the standard motion+letter battery,
# serial and on worker pools, and appends a trajectory entry to
# BENCH_pipeline.json (wall times, reads/sec, trials/sec, per-stage p95
# from the tracer).
#
#   sh scripts/bench.sh            # full measurement (best-of-3 rounds)
#   REPRO_BENCH_SMOKE=1 sh scripts/bench.sh   # tiny smoke workload
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python -m pytest benchmarks/test_perf_hotpath.py -q -s "$@"

echo
echo "== BENCH_pipeline.json (latest entry) =="
python - <<'EOF'
import json
with open("BENCH_pipeline.json", encoding="utf-8") as fh:
    doc = json.load(fh)
entry = doc["entries"][-1]
for key in ("timestamp", "commit", "engine_wall_s", "speedup_vs_pre_pr_baseline",
            "reads_per_s", "slots_per_s", "trials_per_s",
            "serial_trials_per_s", "parallel_trials_per_s_workers2",
            "parallel_trials_per_s_workers4", "parallel_speedup_workers4",
            "stream_provisional_p95_ms", "stream_letter_p95_ms",
            "reader_collect_p95_ms",
            "serve_concurrent_sessions", "serve_sessions_per_s",
            "serve_event_p95_ms", "serve_event_p99_ms",
            "serve_hub_event_p95_ms", "serve_dropped_chunks"):
    print(f"  {key}: {entry.get(key)}")
EOF
