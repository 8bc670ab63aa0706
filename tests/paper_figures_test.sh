#!/usr/bin/env bash
# Paper-figure golden test.
#
# Runs every figure, ablation and table bench in its --quick mode and
# diffs the CSV it writes against the golden copy in tests/paper_figures/
# (one <bench>.csv per bench, which also defines the set of benches run).
# The quick runs are deterministic and take about a second in total in a
# Release build, so any change to a number the paper's figures are built
# from -- an algorithm, a mechanism, the evaluation protocol, or a
# bench's RNG use -- fails here.
#
# --csv appends, so each bench writes a fresh file.
#
# usage: paper_figures_test.sh BENCH_DIR GOLDEN_DIR
set -u

BENCH_DIR=${1:?usage: paper_figures_test.sh BENCH_DIR GOLDEN_DIR}
GOLDEN_DIR=${2:?usage: paper_figures_test.sh BENCH_DIR GOLDEN_DIR}

DIR=$(mktemp -d /tmp/capp_figures_XXXXXX)
trap 'rm -rf "$DIR"' EXIT

failed=0
ran=0
for golden in "$GOLDEN_DIR"/*.csv; do
  bench=$(basename "$golden" .csv)
  csv="$DIR/$bench.csv"
  if ! "$BENCH_DIR/$bench" --quick --csv="$csv" > "$DIR/$bench.log" 2>&1; then
    echo "paper_figures_test: FAIL: $bench exited non-zero" >&2
    cat "$DIR/$bench.log" >&2
    failed=1
    continue
  fi
  if ! diff -u "$golden" "$csv"; then
    echo "paper_figures_test: FAIL: $bench CSV differs from $golden" >&2
    failed=1
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ] && [ "$failed" -eq 0 ]; then
  echo "paper_figures_test: FAIL: no golden CSVs in $GOLDEN_DIR" >&2
  exit 1
fi
if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "paper_figures_test: $ran bench CSVs match their golden copies"
