#!/bin/sh
# Registry smoke test, end to end against the real binary: collect two
# evidence ledgers, publish v1, refit incrementally to v2 and prove it
# byte-identical to a cold retrain on the union (same content-addressed
# id, same object bytes), serve the registry live with an A/B split and
# a watch thread, hot-reload, promote the candidate, and finally check
# gc's reachability rules (channel pointers and lineage chains survive,
# orphans do not).
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=registry-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/registry_smoke
REG="$DIR/registry"
REG2="$DIR/registry_cold"
SOCK="$DIR/portopt.sock"

# Pin artifact/lineage timestamps so reruns are byte-identical too.
export SOURCE_DATE_EPOCH=0

rm -rf "$DIR"
mkdir -p "$DIR"

echo "registry-smoke: collecting evidence ledgers (seeds 42 and 43)..."
REPRO_UARCHS=2 REPRO_OPTS=8 \
  "$BIN" evidence -o "$DIR/e1.jsonl" --log-level quiet
REPRO_UARCHS=2 REPRO_OPTS=8 REPRO_SEED=43 \
  "$BIN" evidence -o "$DIR/e2.jsonl" --log-level quiet

echo "registry-smoke: publish v1 (cold) -> stable..."
"$BIN" registry publish --dir "$REG" --evidence "$DIR/e1.jsonl" \
  --channel stable >"$DIR/pub1.out"
V1=$(sed -n 's/^published \([0-9a-f]*\):.*/\1/p' "$DIR/pub1.out")
grep -q "cold fit" "$DIR/pub1.out"
[ -n "$V1" ]

echo "registry-smoke: refit v2 from fresh evidence -> candidate..."
"$BIN" registry publish --dir "$REG" --evidence "$DIR/e2.jsonl" \
  --parent stable --channel candidate >"$DIR/pub2.out"
V2=$(sed -n 's/^published \([0-9a-f]*\):.*/\1/p' "$DIR/pub2.out")
grep -q "refit from $V1" "$DIR/pub2.out"
[ -n "$V2" ] && [ "$V1" != "$V2" ]

echo "registry-smoke: cold retrain on the union must mint the same id..."
cat "$DIR/e1.jsonl" "$DIR/e2.jsonl" >"$DIR/union.jsonl"
"$BIN" registry publish --dir "$REG2" --evidence "$DIR/union.jsonl" \
  >"$DIR/pub3.out"
V2COLD=$(sed -n 's/^published \([0-9a-f]*\):.*/\1/p' "$DIR/pub3.out")
[ "$V2" = "$V2COLD" ]
cmp "$REG/objects/$V2.pcm" "$REG2/objects/$V2COLD.pcm"

"$BIN" registry list --dir "$REG" | grep -q "parent $V1"
"$BIN" registry resolve --dir "$REG" stable | grep -q "^$V1 "

echo "registry-smoke: serving the registry with A/B and watch..."
start_server "$SOCK" "$DIR/serve.log" --registry "$REG" \
  --ab candidate=0.5 --watch 0.2 --admin --jobs 2

"$BIN" query --socket "$SOCK" --health >"$DIR/health1.out"
grep -q "\"version\":\"$V1\"" "$DIR/health1.out"
grep -q "\"candidate\":{\"version\":\"$V2\"" "$DIR/health1.out"

echo "registry-smoke: A/B-tagged queries..."
"$BIN" query --socket "$SOCK" --batch qsort bitcnts >"$DIR/q1.out"
grep -q "predicted passes" "$DIR/q1.out"
grep -q "arm " "$DIR/q1.out"
# Pointers have not moved: reload must be an effective no-op.
"$BIN" query --socket "$SOCK" --reload | grep -q '"changed":false'

echo "registry-smoke: promoting the candidate..."
"$BIN" promote --dir "$REG" --socket "$SOCK" --force >"$DIR/promote.out"
grep -q "promoted: stable -> $V2" "$DIR/promote.out"
"$BIN" registry resolve --dir "$REG" stable | grep -q "^$V2 "

# The promote nudged a reload (and --watch would catch up anyway): the
# server must now answer health with the promoted version.
i=0
until "$BIN" query --socket "$SOCK" --health | grep -q "\"version\":\"$V2\""; do
  i=$((i + 1))
  if [ $i -ge 50 ]; then
    echo "registry-smoke: server never swapped to $V2" >&2
    exit 1
  fi
  sleep 0.1
done

echo "registry-smoke: gc keeps channels and lineage chains..."
# In the live registry everything is reachable: stable/candidate point
# at v2 and v1 is v2's lineage parent.
"$BIN" registry gc --dir "$REG" | grep -q "^deleted 0, kept 2$"
"$BIN" registry resolve --dir "$REG" "$V1" >/dev/null

# In the cold registry, republishing e1 moves latest onto v1, turning
# the union version into an orphan — exactly what gc must collect.
"$BIN" registry publish --dir "$REG2" --evidence "$DIR/e1.jsonl" \
  >"$DIR/pub4.out"
grep -q "^published $V1:" "$DIR/pub4.out"
"$BIN" registry gc --dir "$REG2" --dry-run | grep -q "^would delete $V2$"
"$BIN" registry resolve --dir "$REG2" "$V2" >/dev/null # dry run deletes nothing
"$BIN" registry gc --dir "$REG2" | grep -q "^deleted $V2$"
if "$BIN" registry resolve --dir "$REG2" "$V2" >/dev/null 2>&1; then
  echo "registry-smoke: orphan still resolvable after gc" >&2
  exit 1
fi
"$BIN" registry resolve --dir "$REG2" "$V1" >/dev/null

echo "registry-smoke: graceful shutdown..."
stop_server
echo "registry-smoke: OK"
