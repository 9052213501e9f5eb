#!/usr/bin/env bash
# Battery determinism check: run `vulcan_sim ARGS` at --jobs 1 and at
# --jobs 2, each from its own directory (DIR/jobs1, DIR/jobs2) so relative
# artefact paths in ARGS land side by side, then `diff -r` the two
# directories. stdout (saved as stdout.txt) and every artefact must be
# byte-identical; stderr, which carries wall-clock [exec] lines, goes to
# DIR/jobsN.log and is not compared.
#
# Usage:
#   scripts/battery_smoke.sh DIR ARGS...
#   scripts/battery_smoke.sh smoke/hotpath --policies all --scenario dilemma \
#     --seconds 20 --seed 42 --bench-json BENCH_hotpath.json
#
# DIR/jobs1 and DIR/jobs2 must not exist yet. VULCAN_SIM names the binary
# (default: build/tools/vulcan_sim).
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 DIR ARGS..." >&2
  exit 2
fi
dir=$1
shift
sim=$(realpath "${VULCAN_SIM:-build/tools/vulcan_sim}")

mkdir -p "$dir"
for jobs in 1 2; do
  mkdir "$dir/jobs$jobs"
  (cd "$dir/jobs$jobs" &&
     "$sim" "$@" --jobs "$jobs" > stdout.txt 2> "../jobs$jobs.log")
done
cat "$dir/jobs1/stdout.txt"
diff -r "$dir/jobs1" "$dir/jobs2"
echo "battery_smoke: $dir: --jobs 1 and 2 byte-identical" \
     "($(ls "$dir/jobs1" | wc -l) files)"
