#!/bin/sh
# Evaluation-store smoke test against the real binary: a cold `train
# --store` populates the store, a warm rerun must reproduce the .pcm
# artifact byte for byte, and the store subcommands (stats, verify, gc)
# must maintain it without corrupting readable records.  A record whose
# header claims a negative payload length must be flagged by verify and
# read as a miss by train.  A cold `crossval --store` must interpret
# each setting once and leave the same store at one and two domains.
# Also regression checks for graceful one-line CLI errors on missing or
# truncated input files, bad arguments, REPRO_* and SOURCE_DATE_EPOCH
# values and missing registries, a report with no trace or with one
# process twice, and usage errors that must leave no trace file, store
# or registry behind.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
DIR=results/store_smoke
STORE="$DIR/store"

rm -rf "$DIR"
mkdir -p "$DIR"

# SOURCE_DATE_EPOCH pins the artifact timestamp so cold and warm runs
# can be compared byte for byte.
echo "store-smoke: cold train..."
env REPRO_UARCHS=2 REPRO_OPTS=8 SOURCE_DATE_EPOCH=0 \
  "$BIN" train --store "$STORE" -o "$DIR/cold.pcm" --log-level quiet

echo "store-smoke: warm train (must be incremental and bit-identical)..."
env REPRO_UARCHS=2 REPRO_OPTS=8 SOURCE_DATE_EPOCH=0 \
  "$BIN" train --store "$STORE" -o "$DIR/warm.pcm" --log-level quiet
cmp "$DIR/cold.pcm" "$DIR/warm.pcm"

echo "store-smoke: stats + verify..."
"$BIN" store stats --store "$STORE" | grep -q "entries"
"$BIN" store verify --store "$STORE" | grep -q "errors   0"

echo "store-smoke: gc respects the bound and keeps records readable..."
"$BIN" store gc --store "$STORE" --max-mb 0.1
"$BIN" store verify --store "$STORE" | grep -q "errors   0"

echo "store-smoke: a record with a negative length is flagged and misses..."
REC=$(find "$STORE/objects" -name '*.rec' | sort | head -n 1)
[ -n "$REC" ]
sed '1s/"bytes":[0-9]*/"bytes":-1/' "$REC" >"$DIR/corrupt.rec"
mv "$DIR/corrupt.rec" "$REC"
rc=0
"$BIN" store verify --store "$STORE" >"$DIR/verify_corrupt.out" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "store-smoke: verify of a corrupt record exited $rc, expected 1" >&2
  cat "$DIR/verify_corrupt.out" >&2
  exit 1
fi
grep -q "negative payload length" "$DIR/verify_corrupt.out"
if grep -q "internal error" "$DIR/verify_corrupt.out"; then
  echo "store-smoke: verify crashed on a corrupt record" >&2
  exit 1
fi
env REPRO_UARCHS=2 REPRO_OPTS=8 SOURCE_DATE_EPOCH=0 \
  "$BIN" train --store "$STORE" -o "$DIR/after_corrupt.pcm" --log-level quiet
cmp "$DIR/cold.pcm" "$DIR/after_corrupt.pcm"

echo "store-smoke: crossval profiles each setting once at any REPRO_JOBS..."
# Every interpretation writes one record to a cold store, and the
# store a crossval leaves is the same at one and two domains.
for j in 2 1; do
  env REPRO_UARCHS=2 REPRO_OPTS=8 REPRO_JOBS=$j \
    "$BIN" crossval --store "$DIR/cv_store$j" --trace "$DIR/cv$j.jsonl" \
    --log-level quiet >"$DIR/cv$j.out"
  RUNS=$(sed -n 's/.*"interp\.runs":\([0-9]*\).*/\1/p' "$DIR/cv$j.jsonl" \
    | tail -n 1)
  WRITES=$(sed -n 's/.*"store\.writes":\([0-9]*\).*/\1/p' "$DIR/cv$j.jsonl" \
    | tail -n 1)
  if [ -z "$RUNS" ] || [ "$RUNS" != "$WRITES" ]; then
    echo "store-smoke: crossval at REPRO_JOBS=$j interpreted '$RUNS'" \
      "times for '$WRITES' store records" >&2
    exit 1
  fi
done
cmp "$DIR/cv1.out" "$DIR/cv2.out"
diff -r "$DIR/cv_store1" "$DIR/cv_store2"

echo "store-smoke: graceful errors..."
# Missing store directory: one-line diagnostic, nonzero exit.
if "$BIN" store verify --store "$DIR/no_such_store" \
  >"$DIR/err1.out" 2>&1; then
  echo "store-smoke: verify of a missing store should fail" >&2
  exit 1
fi
grep -q "no store at" "$DIR/err1.out"
test "$(wc -l <"$DIR/err1.out")" -eq 1

# Missing trace file: report must diagnose, not crash.
if "$BIN" report "$DIR/no_such_trace.jsonl" >"$DIR/err2.out" 2>&1; then
  echo "store-smoke: report of a missing trace should fail" >&2
  exit 1
fi

# No trace file at all: a usage error like any missing argument.
rc=0
"$BIN" report >"$DIR/err_report.out" 2>&1 || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "store-smoke: report without TRACE exited $rc, expected 124" >&2
  cat "$DIR/err_report.out" >&2
  exit 1
fi

# One process in two files: its spans would collide and its metrics
# count twice, so report refuses in one line.
rc=0
"$BIN" report "$DIR/cv1.jsonl" "$DIR/cv1.jsonl" >"$DIR/err_report.out" 2>&1 \
  || rc=$?
if [ "$rc" -ne 1 ] || [ "$(wc -l <"$DIR/err_report.out")" -ne 1 ] \
  || ! grep -q "both trace process" "$DIR/err_report.out"; then
  echo "store-smoke: report of one process twice exited $rc with:" >&2
  cat "$DIR/err_report.out" >&2
  exit 1
fi

# Truncated model artifact: predict --model must print one diagnostic
# line and exit nonzero.
head -c 40 "$DIR/cold.pcm" >"$DIR/truncated.pcm"
if "$BIN" predict --model "$DIR/truncated.pcm" qsort \
  >"$DIR/err3.out" 2>&1; then
  echo "store-smoke: predict from a truncated artifact should fail" >&2
  exit 1
fi
grep -qi "truncated" "$DIR/err3.out"
test "$(wc -l <"$DIR/err3.out")" -eq 1

# Empty model artifact.
: >"$DIR/empty.pcm"
if "$BIN" predict --model "$DIR/empty.pcm" qsort >"$DIR/err4.out" 2>&1; then
  echo "store-smoke: predict from an empty artifact should fail" >&2
  exit 1
fi
test "$(wc -l <"$DIR/err4.out")" -eq 1

# A usage error (train without -o, a bad chaos spec, a bad worker
# address) leaves neither the trace file nor the store directory
# behind: both are opened only once every argument has parsed and been
# checked.
for args in "train" "train --workers 1 --chaos bogus -o $DIR/bad.pcm" \
  "worker --connect nope"; do
  # shellcheck disable=SC2086
  if "$BIN" $args --trace "$DIR/usage.jsonl" --store "$DIR/usage_store" \
    >"$DIR/err5.out" 2>&1; then
    echo "store-smoke: '$args' should fail" >&2
    exit 1
  fi
  if [ -e "$DIR/usage.jsonl" ] || [ -e "$DIR/usage_store" ]; then
    echo "store-smoke: '$args' left a trace file or a store behind" >&2
    exit 1
  fi
done

# A bad microarchitecture, an unknown program, a nonpositive scale, a
# bad REPRO_* or SOURCE_DATE_EPOCH value, bad cluster options and a
# registry reader pointed at a missing directory: one diagnostic line
# and a nonzero exit before any work (no artifact), never an uncaught
# exception.
for args in "$BIN run qsort --il1-kb 3" "$BIN run nosuchprog" \
  "$BIN train --train-uarchs 0 --train-opts 1 -o $DIR/bad.pcm" \
  "$BIN train --train-opts 0 -o $DIR/bad.pcm" \
  "$BIN train --train-uarchs=-2 -o $DIR/bad.pcm" \
  "$BIN predict qsort --train-uarchs 0" \
  "REPRO_UARCHS=0 $BIN train -o $DIR/bad.pcm" \
  "REPRO_SEED=abc $BIN crossval" \
  "REPRO_JOBS=0 $BIN train -o $DIR/bad.pcm" \
  "$BIN train --workers 1 --lease-size 0 -o $DIR/bad.pcm" \
  "$BIN crossval --workers 1 --lease-timeout 0" \
  "$BIN train --workers 1 --chaos bogus -o $DIR/bad.pcm" \
  "$BIN train --cluster-listen nope -o $DIR/bad.pcm" \
  "SOURCE_DATE_EPOCH=abc REPRO_UARCHS=1 REPRO_OPTS=1 $BIN train -o $DIR/bad.pcm" \
  "$BIN registry list --dir $DIR/no_such_registry" \
  "$BIN registry gc --dir $DIR/no_such_registry"; do
  rc=0
  # shellcheck disable=SC2086
  env $args >"$DIR/err6.out" 2>&1 || rc=$?
  if [ "$rc" -eq 0 ] || grep -q "internal error" "$DIR/err6.out" \
    || [ "$(wc -l <"$DIR/err6.out")" -ne 1 ] || [ -e "$DIR/bad.pcm" ]; then
    echo "store-smoke: '$args' exited $rc with:" >&2
    cat "$DIR/err6.out" >&2
    exit 1
  fi
done
# Reading a registry never creates one.
if [ -e "$DIR/no_such_registry" ]; then
  echo "store-smoke: a registry reader created $DIR/no_such_registry" >&2
  exit 1
fi
# The microarchitecture message names the option it rejects.
if ! "$BIN" run qsort --il1-kb 3 2>&1 | grep -q -- "'--il1-kb'"; then
  echo "store-smoke: the --il1-kb error does not name the option" >&2
  exit 1
fi

echo "store-smoke: OK"
