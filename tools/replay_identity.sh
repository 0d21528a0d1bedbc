#!/bin/sh
# Checks that two webcc builds replay identically. Runs the same seventeen
# replays with each binary and compares, per replay:
#   - stdout, without the `wrote ...` lines;
#   - the --trace-out JSONL streams, byte for byte;
#   - the --metrics-out JSON, key by key, and a histogram field by field
#     (KEY.count, KEY.mean, KEY.min, KEY.max, KEY.p50, ...). Keys ending in
#     replay.host_seconds (host timing) and keys ending in an ALLOWED_METRIC
#     suffix may differ; every other differing key fails the check. Each
#     differing key except host timing is printed with both values.
#
# Usage: tools/replay_identity.sh PARENT_WEBCC CHANGE_WEBCC [ALLOWED_METRIC...]
#   e.g. tools/replay_identity.sh ../parent/build/tools/webcc \
#          build/tools/webcc replay.sim_events_executed .p99
#
# Exits 0 when only allowed keys differ, 1 on any other difference or a
# failed replay, 2 on a usage error.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 PARENT_WEBCC CHANGE_WEBCC [ALLOWED_METRIC...]" >&2
  exit 2
fi
absolute() {
  case "$1" in
    /*) printf '%s\n' "$1" ;;
    *) printf '%s/%s\n' "$(pwd)" "$1" ;;
  esac
}
parent=$(absolute "$1")
change=$(absolute "$2")
shift 2
for binary in "$parent" "$change"; do
  if [ ! -x "$binary" ]; then
    echo "$0: not an executable: $binary" >&2
    exit 2
  fi
done
# Metric names hold no spaces; the comparison below splits on them.
WEBCC_IDENTITY_ALLOWED="replay.host_seconds $*"
export WEBCC_IDENTITY_ALLOWED

# The fault plans are named relative to the repository root.
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
plans=tests/data/fault_plans
status=0

# replay NAME ARGS...: one replay with both binaries, then the comparison.
replay() {
  name=$1
  shift
  for side in parent change; do
    if [ "$side" = parent ]; then binary=$parent; else binary=$change; fi
    out="$work/$name.$side"
    if ! "$binary" replay "$@" --trace-out "$out.jsonl" \
      --metrics-out "$out.json" >"$out.stdout" 2>"$out.stderr"; then
      echo "FAIL $name: the $side replay exited nonzero"
      cat "$out.stderr"
      status=1
      return 0
    fi
    grep -v '^wrote ' "$out.stdout" >"$out.txt" || true
  done
  differs=0
  if ! cmp -s "$work/$name.parent.txt" "$work/$name.change.txt"; then
    echo "FAIL $name: stdout differs"
    diff "$work/$name.parent.txt" "$work/$name.change.txt" | head -20 || true
    differs=1
  fi
  if ! cmp -s "$work/$name.parent.jsonl" "$work/$name.change.jsonl"; then
    echo "FAIL $name: trace differs"
    cmp "$work/$name.parent.jsonl" "$work/$name.change.jsonl" || true
    differs=1
  fi
  if ! python3 - "$name" "$work/$name.parent.json" "$work/$name.change.json" \
    <<'EOF'; then
import json
import os
import sys

name, parent_path, change_path = sys.argv[1:]
allowed = os.environ["WEBCC_IDENTITY_ALLOWED"].split()


def flatten(path):
    """The dump's keys, with each histogram object split into KEY.FIELD."""
    with open(path) as f:
        dump = json.load(f)
    flat = {}
    for key, value in dump.items():
        if isinstance(value, dict):
            for field, v in value.items():
                flat[f"{key}.{field}"] = v
        else:
            flat[key] = value
    return flat


parent = flatten(parent_path)
change = flatten(change_path)
failed = False
for key in sorted(set(parent) | set(change)):
    a, b = parent.get(key, "(absent)"), change.get(key, "(absent)")
    if a == b or key.endswith("replay.host_seconds"):
        continue
    ok = any(key.endswith(suffix) for suffix in allowed)
    print(f"{'allowed' if ok else 'FAIL'} {name}: {key} {a} -> {b}")
    failed = failed or not ok
sys.exit(1 if failed else 0)
EOF
    differs=1
  fi
  if [ "$differs" -eq 0 ]; then
    echo "ok $name"
  else
    status=1
  fi
}

replay sdsc_all --preset SDSC --protocol all
replay epa_server_crash --preset EPA \
  --fault-plan "$plans/server_crash_journal_recovery.json"
replay epa_partition --preset EPA \
  --fault-plan "$plans/partition_during_writes.json"
replay sask_sharded_crash --preset SASK --shards 4 --decoupled \
  --batch-window 50 --fault-plan "$plans/server_crash_journal_recovery.json"
# `--protocol all` covers ttl, poll and invalidation only; the piggyback
# protocols run under duplicating, dropping and delaying links.
replay nasa_pcv_lossy --preset NASA --protocol pcv \
  --fault-plan "$plans/lossy_links.json"
replay nasa_psi_lossy --preset NASA --protocol psi \
  --fault-plan "$plans/lossy_links.json"
replay sdsc_pcv_lossy --preset SDSC --protocol pcv --fault-seed 5 \
  --fault-plan "$plans/lossy_links.json"
# Every invalidation send mode: multicast group sends with refused copies,
# the journal-less INVSRV broadcast, multi-URL INVB frames with refusals,
# and decoupled unbatched sends with targeted recovery invalidations.
replay clarknet_multicast --preset ClarkNet --multicast --fault-seed 9
replay epa_invsrv --preset EPA --no-journal \
  --fault-plan "$plans/server_crash_journal_recovery.json"
replay flash_crowd_batched \
  --scenario tests/data/scenarios/flash_crowd_mid_write.json \
  --protocol invalidation --decoupled --shards 3 --batch-window 5000 \
  --fault-seed 2
replay sdsc_decoupled --preset SDSC --decoupled --shards 3 --fault-seed 6
# The eviction kernel under pressure: the runs above keep the default
# 128 MiB cache, which seldom evicts, so these give each proxy 1 MB. They
# reach the expired-first rule, GreedyDual-Size, and PCV's TakeExpired
# competing with the expired-first rule for the same TTL index.
replay sask_small_cache --preset SASK --protocol all --cache-bytes 1000000
replay sask_gds --preset SASK --protocol all --cache-bytes 1000000 \
  --cache-policy gds
replay sask_pcv_small_cache --preset SASK --protocol pcv --cache-bytes 1000000
# Leases: none of the runs above grants one. These reach lease grants and
# expiries across shards (two-tier, batched), and the INVSRV broadcast and
# journal recovery built from three shards' site lists.
replay sask_twotier_sharded --preset SASK --protocol invalidation --two-tier \
  --lease-days 1 --shards 4 --decoupled --batch-window 50
replay epa_invsrv_leases_sharded --preset EPA --lease-days 0.01 --shards 3 \
  --no-journal --fault-plan "$plans/server_crash_journal_recovery.json"
replay epa_journal_leases_sharded --preset EPA --lease-days 0.01 --shards 3 \
  --fault-plan "$plans/server_crash_journal_recovery.json"

if [ "$status" -eq 0 ]; then
  echo "replay identity: PASS"
else
  echo "replay identity: FAIL"
fi
exit "$status"
