#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of a 3-node vbmcd cluster.
#
# Starts one solo daemon and a 3-node cluster (static -peers list,
# ephemeral ports) and runs the quick Tables 1-2 sweep through
# POST /v1/batch, asserting:
#
#   1. the cold cluster pass produces byte-identical verdict rows
#      (index, status, verdict, witness SHA-256) to the solo daemon —
#      routing never changes answers. State counts are excluded: the
#      rows compare answers only;
#   2. requests were actually forwarded: the ravbmc_cluster_*
#      families are present and summed forwards are > 0;
#   3. a SIGTERM delivered to one member mid-sweep (a parked long
#      verification keeps it draining) does not break the sweep: the
#      warm pass through the surviving coordinator still exits 0 and
#      stays byte-identical with the solo baseline;
#   4. the warm pass fills from the draining owner's still-warm cache:
#      the coordinator's ravbmc_cluster_peer_fill_hits_total is > 0 and
#      the victim's ravbmc_cluster_peer_fill_served_total is > 0;
#   5. the SIGTERM'd node drains cleanly: exit 0 and "drained, bye".
#
# Usage:
#   scripts/cluster_smoke.sh
#   SMOKE_BUILD_FLAGS=-race scripts/cluster_smoke.sh   # CI: race-enabled daemons
#   SMOKE_TIMEOUT=60 scripts/cluster_smoke.sh          # per-item budget (s)
set -euo pipefail
cd "$(dirname "$0")/.."

req_timeout="${SMOKE_TIMEOUT:-30}"
tmp="$(mktemp -d)"
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT

# shellcheck disable=SC2086 — SMOKE_BUILD_FLAGS is intentionally word-split
go build ${SMOKE_BUILD_FLAGS:-} -o "$tmp/vbmcd" ./cmd/vbmcd

# The static -peers list needs every address up front, so grab free
# ports first (held together, then released — the race window between
# release and bind is acceptable for a smoke test).
cat >"$tmp/freeports.go" <<'EOF'
package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
)

func main() {
	n, _ := strconv.Atoi(os.Args[1])
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		lns[i] = ln
		fmt.Println(ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range lns {
		ln.Close()
	}
}
EOF
mapfile -t ports < <(go run "$tmp/freeports.go" 3)
[ "${#ports[@]}" -eq 3 ] || { echo "FAIL: could not allocate ports" >&2; exit 1; }

names=(n1 n2 n3)
bases=() npids=()
peerlist="n1=http://127.0.0.1:${ports[0]},n2=http://127.0.0.1:${ports[1]},n3=http://127.0.0.1:${ports[2]}"

# start_node NAME ARGS... — launch a daemon, wait for its address line,
# append to bases/npids/pids.
start_node() {
  local name="$1"
  shift
  "$tmp/vbmcd" "$@" >"$tmp/$name.out" 2>"$tmp/$name.err" &
  local pid=$!
  pids+=("$pid")
  local base=""
  for _ in $(seq 1 100); do
    base="$(sed -n 's/^vbmcd listening on //p' "$tmp/$name.out")"
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/$name.err" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$base" ] || { echo "FAIL: $name never printed its address" >&2; exit 1; }
  bases+=("$base")
  npids+=("$pid")
  echo "$name up at $base (pid $pid)" >&2
}

# The quick Tables 1-2 rows: "bench k l" triples at the paper's bounds.
sweep_rows() {
  cat <<'EOF'
dekker 2 2
peterson_0 2 2
sim_dekker 2 2
peterson_1(3) 4 2
szymanski_1(3) 2 2
szymanski_1(4) 2 2
EOF
}

batch_payload() {
  sweep_rows | jq -Rs --argjson t "$req_timeout" '
    {items: [split("\n")[] | select(length > 0) | split(" ") |
      {bench: .[0], mode: "vbmc", k: (.[1] | tonumber),
       unroll: (.[2] | tonumber), timeout_seconds: $t}]}'
}

# run_batch BASE OUT.tsv RESP.json — POST the sweep as one batch and
# extract one stable row per item. Node, timing and state-count fields
# are excluded so solo and cluster passes compare byte for byte.
run_batch() {
  batch_payload | curl -fsS -X POST "$1/v1/batch" \
    -H 'Content-Type: application/json' -d @- >"$3"
  jq -e '.ok == true' "$3" >/dev/null || {
    echo "FAIL: batch against $1 not ok:" >&2
    jq '{ok, failed, items: [.items[] | select(.status != 200)]}' "$3" >&2
    exit 1
  }
  jq -r '.items | sort_by(.index)[] |
    [.index, .status, .verdict // "", (.witness_sha256 // "")] | @tsv' \
    "$3" >"$2"
}

scrape() { # scrape BASE METRIC — counter value, 0 if absent
  curl -fsS "$1/metrics" | awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

# --- solo baseline -----------------------------------------------------
start_node solo -addr 127.0.0.1:0
solo_base="${bases[0]}"
run_batch "$solo_base" "$tmp/solo.tsv" "$tmp/solo.json"
grep -q 'UNSAFE' "$tmp/solo.tsv" || { echo "FAIL: sweep found no UNSAFE verdicts" >&2; exit 1; }
kill "${npids[0]}" 2>/dev/null && wait "${npids[0]}" 2>/dev/null || true
bases=() npids=()
echo "solo baseline: $(wc -l <"$tmp/solo.tsv") rows" >&2

# --- cold cluster pass -------------------------------------------------
for i in 0 1 2; do
  start_node "${names[$i]}" -addr "127.0.0.1:${ports[$i]}" \
    -node-id "${names[$i]}" -peers "$peerlist" \
    -drain-grace 120s -probe-interval 500ms
done
n1_base="${bases[0]}"

run_batch "$n1_base" "$tmp/cold.tsv" "$tmp/cold.json"
if ! cmp -s "$tmp/solo.tsv" "$tmp/cold.tsv"; then
  echo "FAIL: cluster cold pass disagrees with the solo daemon:" >&2
  diff "$tmp/solo.tsv" "$tmp/cold.tsv" >&2 || true
  exit 1
fi
forwards=0
for b in "${bases[@]}"; do
  forwards=$((forwards + $(scrape "$b" ravbmc_cluster_forwards_total)))
done
[ "$forwards" -gt 0 ] || { echo "FAIL: no request was forwarded in the cold pass" >&2; exit 1; }
echo "cold pass byte-identical with solo ($forwards forwards)" >&2

# --- SIGTERM one member mid-sweep, then the warm pass ------------------
# The victim is a node that served at least one sweep item and is not
# the coordinator, read off the cold pass's per-item node stamps.
victim="$(jq -r '[.items[].node] | map(select(. != "n1")) | .[0] // empty' "$tmp/cold.json")"
[ -n "$victim" ] || { echo "FAIL: every sweep item landed on the coordinator" >&2; exit 1; }
vi=0
for i in 1 2; do [ "${names[$i]}" = "$victim" ] && vi=$i; done
victim_base="${bases[$vi]}"
victim_pid="${npids[$vi]}"
echo "victim: $victim at $victim_base" >&2

# Park a long verification on the victim (the forwarded header pins it
# there) so the SIGTERM leaves it alive-but-draining: still answering
# cache reads while /readyz says 503.
curl -fsS -X POST "$victim_base/v1/verify" -H 'Content-Type: application/json' \
  -H 'X-Ravbmc-Forwarded-From: smoke' \
  -d '{"bench":"lamport_4","mode":"vbmc","k":2,"unroll":1,"timeout_seconds":120}' \
  >/dev/null 2>&1 &
park_pid=$!
for _ in $(seq 1 50); do
  [ "$(scrape "$victim_base" ravbmc_serve_active)" -gt 0 ] && break
  sleep 0.1
done
kill -TERM "$victim_pid"
for _ in $(seq 1 50); do
  code="$(curl -s -o /dev/null -w '%{http_code}' "$victim_base/readyz")"
  [ "$code" = "503" ] && break
  sleep 0.1
done
[ "${code:-}" = "503" ] || { echo "FAIL: $victim never reported draining on /readyz" >&2; exit 1; }
echo "$victim draining (readyz 503)" >&2

fills0="$(scrape "$n1_base" ravbmc_cluster_peer_fill_hits_total)"
run_batch "$n1_base" "$tmp/warm.tsv" "$tmp/warm.json"
if ! cmp -s "$tmp/solo.tsv" "$tmp/warm.tsv"; then
  echo "FAIL: warm pass with a draining member disagrees with the solo daemon:" >&2
  diff "$tmp/solo.tsv" "$tmp/warm.tsv" >&2 || true
  exit 1
fi
fills=$(( $(scrape "$n1_base" ravbmc_cluster_peer_fill_hits_total) - fills0 ))
[ "$fills" -gt 0 ] || {
  echo "FAIL: warm pass made no peer cache fills from the draining owner" >&2
  curl -fsS "$n1_base/metrics" | grep '^ravbmc_cluster' >&2
  exit 1
}
served="$(scrape "$victim_base" ravbmc_cluster_peer_fill_served_total)"
[ "$served" -gt 0 ] || { echo "FAIL: draining $victim served no peer cache reads" >&2; exit 1; }
echo "warm pass byte-identical with solo ($fills peer fills, $served served by draining $victim)" >&2

# --- the victim must drain cleanly -------------------------------------
kill "$park_pid" 2>/dev/null || true
wait "$park_pid" 2>/dev/null || true
rc=0
wait "$victim_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: $victim exited $rc after SIGTERM" >&2
  cat "$tmp/$victim.err" >&2
  exit 1
fi
grep -q 'drained, bye' "$tmp/$victim.err" || {
  echo "FAIL: $victim never reported a clean drain" >&2
  cat "$tmp/$victim.err" >&2
  exit 1
}

echo "cluster smoke OK: $(wc -l <"$tmp/solo.tsv") rows byte-identical solo/cold/warm, $forwards forwards, $fills peer fills, clean drain of $victim" >&2
