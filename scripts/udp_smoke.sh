#!/usr/bin/env bash
# Two-OS-process UDP smoke test.
#
# Phase 1: starts two `horus_info node` processes on 127.0.0.1, each
# one member of a TOTAL:MBRSHIP:FRAG:NAK:COM group over real UDP
# sockets. Each node casts CASTS messages and reports its final view,
# its delivery sequence, local invariant verdicts and transport stats
# as JSON. The cross-check below then asserts the distributed
# properties a single process cannot see: both processes agree on the
# final view, each delivered every cast (2*CASTS), and the delivery
# sequences are byte-identical — the total order held across the
# kernel boundary.
#
# Phase 2 (sharded): the same group at 4 members hosted by two
# processes running `--shards 2` — each process is two engine shards
# (two OCaml domains, two sockets, batched syscalls), co-resident
# cross-rank traffic riding the fabric's lock-free mailboxes instead
# of the kernel. The cross-check extends to all four members and also
# asserts that the mailboxes actually carried frames in each process,
# and that their doorbells rang (shard.wakeups > 0) no more often than
# frames were posted.
#
# Environment:
#   UDP_SMOKE_DIR    artifact directory (default udp-smoke-artifacts)
#   UDP_SMOKE_CASTS  casts per node      (default 1000)
#   UDP_SMOKE_PORT0/1  UDP ports, phase 1    (default 7601/7602)
#   UDP_SMOKE_SHARD_PORT  first of 4 consecutive ports, phase 2 (default 7611)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${UDP_SMOKE_DIR:-udp-smoke-artifacts}"
CASTS="${UDP_SMOKE_CASTS:-1000}"
PORT0="${UDP_SMOKE_PORT0:-7601}"
PORT1="${UDP_SMOKE_PORT1:-7602}"
PEERS="0=127.0.0.1:${PORT0},1=127.0.0.1:${PORT1}"
mkdir -p "$OUT"

dune build bin/horus_info.exe
BIN=_build/default/bin/horus_info.exe

echo "udp_smoke: peers $PEERS, $CASTS casts per node"

RC0=0
RC1=0
"$BIN" node --rank 0 --peers "$PEERS" --casts "$CASTS" --timeout 120 \
  >"$OUT/node0.json" 2>"$OUT/node0.log" &
PID0=$!
# Deliberately staggered: rank 1's join must cope with rank 0 already
# being up for a while (MBRSHIP's merge retries absorb the other order).
sleep 1
"$BIN" node --rank 1 --peers "$PEERS" --casts "$CASTS" --timeout 120 \
  >"$OUT/node1.json" 2>"$OUT/node1.log" || RC1=$?
wait "$PID0" || RC0=$?

echo "udp_smoke: node exits rank0=$RC0 rank1=$RC1"

python3 - "$OUT" "$CASTS" <<'EOF'
import json, sys

out, casts = sys.argv[1], int(sys.argv[2])
a = json.load(open(f"{out}/node0.json"))
b = json.load(open(f"{out}/node1.json"))
expect = 2 * casts
failures = []

for d in (a, b):
    r = d["rank"]
    if not d["formed"]:
        failures.append(f"rank {r}: group never formed")
    if not d["complete"]:
        failures.append(f"rank {r}: incomplete ({d['delivered']}/{expect})")
    if d["delivered"] < expect:
        failures.append(f"rank {r}: delivered {d['delivered']} < {expect}")
    if d["violations"]:
        failures.append(f"rank {r}: local invariant violations: {d['violations']}")
    if d["transport"]["bad_frame"]:
        failures.append(f"rank {r}: {d['transport']['bad_frame']} bad frames")

if a["final_view"] != b["final_view"]:
    failures.append(f"view disagreement: {a['final_view']} vs {b['final_view']}")
elif a["final_view"] is None or sorted(a["final_view"]["members"]) != [0, 1]:
    failures.append(f"final view is not {{0,1}}: {a['final_view']}")

if a["casts"] != b["casts"]:
    diverge = next(
        (i for i, (x, y) in enumerate(zip(a["casts"], b["casts"])) if x != y),
        min(len(a["casts"]), len(b["casts"])),
    )
    failures.append(f"total order broken: sequences diverge at index {diverge}")

if failures:
    print("udp_smoke: FAIL")
    for f in failures:
        print("  -", f)
    sys.exit(1)

print(
    f"udp_smoke: OK — both processes installed view {a['final_view']}, "
    f"each delivered {a['delivered']} casts in the same total order, "
    f"0 invariant violations, 0 bad frames"
)
EOF

# ----- phase 2: two processes x two engine shards each ---------------

SPORT="${UDP_SMOKE_SHARD_PORT:-7611}"
SPEERS="0=127.0.0.1:${SPORT},1=127.0.0.1:$((SPORT+1)),2=127.0.0.1:$((SPORT+2)),3=127.0.0.1:$((SPORT+3))"
SCASTS=$(( CASTS / 2 ))
echo "udp_smoke: sharded phase — peers $SPEERS, 2 processes x 2 shards, $SCASTS casts per member"

RCA=0
RCB=0
"$BIN" node --rank 0 --shards 2 --batch 32 --peers "$SPEERS" --casts "$SCASTS" --timeout 120 \
  >"$OUT/procA.json" 2>"$OUT/procA.log" &
PIDA=$!
sleep 1
"$BIN" node --rank 2 --shards 2 --batch 32 --peers "$SPEERS" --casts "$SCASTS" --timeout 120 \
  >"$OUT/procB.json" 2>"$OUT/procB.log" || RCB=$?
wait "$PIDA" || RCA=$?

echo "udp_smoke: sharded node exits procA=$RCA procB=$RCB"

python3 - "$OUT" "$SCASTS" <<'EOF'
import json, sys

out, casts = sys.argv[1], int(sys.argv[2])
procs = {p: json.load(open(f"{out}/proc{p}.json")) for p in ("A", "B")}
members = []
failures = []

for p, doc in procs.items():
    if doc.get("shards") != 2:
        failures.append(f"proc {p}: expected 2 shards, got {doc.get('shards')}")
    counters = doc.get("shard", {}).get("counters", {})
    posted = counters.get("shard.posted", 0)
    drained = counters.get("shard.drained", 0)
    if posted == 0:
        failures.append(f"proc {p}: co-resident traffic never rode the mailboxes")
    if drained != posted:
        failures.append(f"proc {p}: mailbox loss: posted {posted}, drained {drained}")
    # A post rings its destination only when that shard sleeps, and at
    # most once: an idle gap between casts must have rung some shard,
    # and rings can never outnumber posts.
    wakeups = counters.get("shard.wakeups", 0)
    if wakeups == 0:
        failures.append(f"proc {p}: no mailbox post ever woke a parked shard")
    if wakeups > posted:
        failures.append(f"proc {p}: {wakeups} doorbell rings for {posted} posts")
    members.extend(doc["reports"])

expect = 4 * casts
for d in members:
    r = d["rank"]
    if not d["formed"]:
        failures.append(f"rank {r}: group never formed")
    if not d["complete"]:
        failures.append(f"rank {r}: incomplete ({d['delivered']}/{expect})")
    if d["violations"]:
        failures.append(f"rank {r}: local invariant violations: {d['violations']}")
    if d["transport"]["bad_frame"]:
        failures.append(f"rank {r}: {d['transport']['bad_frame']} bad frames")

views = [d["final_view"] for d in members]
if any(v != views[0] for v in views):
    failures.append(f"view disagreement across shards/processes: {views}")
elif views and (views[0] is None or sorted(views[0]["members"]) != [0, 1, 2, 3]):
    failures.append(f"final view is not {{0,1,2,3}}: {views[0]}")

seqs = [d["casts"] for d in members]
for i, s in enumerate(seqs[1:], start=1):
    if s != seqs[0]:
        diverge = next(
            (k for k, (x, y) in enumerate(zip(seqs[0], s)) if x != y),
            min(len(seqs[0]), len(s)),
        )
        failures.append(
            f"total order broken: member {i}'s sequence diverges at index {diverge}"
        )

if len(members) != 4:
    failures.append(f"expected 4 member reports, got {len(members)}")

if failures:
    print("udp_smoke (sharded): FAIL")
    for f in failures:
        print("  -", f)
    sys.exit(1)

mail = sum(p.get("shard", {}).get("counters", {}).get("shard.posted", 0) for p in procs.values())
rings = sum(p.get("shard", {}).get("counters", {}).get("shard.wakeups", 0) for p in procs.values())
print(
    f"udp_smoke (sharded): OK — 4 members across 2 processes x 2 shards agree on "
    f"view {views[0]['members'] if views[0] else None}, {expect} casts each in one "
    f"total order, {mail} frames over the lock-free mailboxes, {rings} doorbell rings"
)
EOF

exit $((RC0 + RC1 + RCA + RCB))
