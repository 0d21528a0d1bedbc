#!/bin/sh
# Peak RSS per added request of `webcc replay --scenario ... --protocol ttl`
# on the EXPERIMENTS.md memory recipe's scenario (10^4 sites, 2x10^4
# documents, 24 h), between 2.5x10^5 and 10^6 requests. The two sizes are
# 4x apart, so the slack of a doubling vector cancels out. Each peak is
# getrusage(RUSAGE_CHILDREN) of one replay.
#
# Usage: tools/replay_memory_slope.sh WEBCC
#   e.g. tools/replay_memory_slope.sh build/tools/webcc
#
# Prints both peaks and the slope; exits 1 when the slope exceeds 30 B per
# added request, 2 on a usage error.
set -eu

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 WEBCC" >&2
  exit 2
fi
webcc=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# peak REQUESTS: the replay's peak RSS in KiB.
peak() {
  "$webcc" synth --sites 10000 --documents 20000 --duration-hours 24 \
    --requests "$1" --print-config >"$work/scenario.json"
  python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
    "$webcc" replay --scenario "$work/scenario.json" --protocol ttl
}

small=$(peak 250000)
large=$(peak 1000000)
python3 - "$small" "$large" <<'PY'
import sys

LIMIT = 30  # bytes per added request
small, large = int(sys.argv[1]), int(sys.argv[2])
slope = (large - small) * 1024 / 750000
print(f"peak RSS {small / 1024:.1f} MiB at 2.5x10^5 requests, "
      f"{large / 1024:.1f} MiB at 10^6: {slope:.1f} B per added request "
      f"(limit {LIMIT})")
sys.exit(0 if slope <= LIMIT else 1)
PY
