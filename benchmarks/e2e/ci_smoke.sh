#!/usr/bin/env bash
# Smoke check of the benchmark itself: its tests, one single-repetition
# pass over all five workloads, and compare.py of that pass against itself.
# The result file records the machine (nproc, Python, the ruler's reading
# host.calibration_ops_per_s, load average),
# so a slow or busy runner can be told from a slow program.  A later PR
# wires this into .github/workflows/ci.yml; it is not a gate on timing.
#
#   bash benchmarks/e2e/ci_smoke.sh [result-file]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
mkdir -p "$here/out"
result="${1:-$here/out/ci_smoke.json}"
cd "$root"

load="$(cut -d' ' -f1 /proc/loadavg)"
if awk -v load="$load" 'BEGIN { exit !(load > 1) }'; then
    echo "WARNING: 1-minute load average is $load (> 1): host timings will be noisy" >&2
fi

python3 -m pytest -q -p no:cacheprovider "$here/tests"

# --seconds 0: each workload runs its warm-up and exactly one repetition.
python3 "$here/run.py" --seed 1 --seconds 0 --trace 0 --out "$result"
python3 "$here/compare.py" "$result" "$result"

python3 - "$result" "$load" <<'PY'
import json, sys
path, load = sys.argv[1], float(sys.argv[2])
with open(path) as handle:
    result = json.load(handle)
result["host"]["loadavg_1m_before_tests"] = load
with open(path, "w") as handle:
    json.dump(result, handle, indent=1, sort_keys=True)
    handle.write("\n")
print("host:", json.dumps(result["host"], sort_keys=True))
PY
echo "smoke result: $result"
