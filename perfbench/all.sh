#!/bin/sh
# Run every workload once, from the repository root:
#   sh perfbench/all.sh [seed] [trace]
# Each run prints its metrics by name and unit, then its result line.
set -e
for workload in dsg-ring bd-grid cap-sweep verify-ring; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds 20 --trace "${2:-0}"
done
