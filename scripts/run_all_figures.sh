#!/usr/bin/env bash
# Regenerate every figure of the paper's evaluation and store the output
# under results/. Usage:
#   scripts/run_all_figures.sh [quick|paper]
set -euo pipefail
scale="${1:-quick}"
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release -p ego-bench
for fig in fig4a fig4b fig4c fig4d fig4e fig4f fig4g fig4h ablation; do
    echo "=== $fig (scale: $scale) ==="
    ./target/release/"$fig" --scale "$scale" | tee "results/${fig}_${scale}.md"
done
echo "done; results under results/"
