#!/bin/sh
# verify-examples: run the example pipelines and statically verify every
# pinball -> ELFie conversion they produce, both through the emitter's own
# self-check (pinball2elf -verify) and through the standalone verifier
# (everify -json, asserting zero error-severity findings). Every -json
# output must also parse as strict JSON, including reports about artifacts
# whose paths carry quotes and backslashes.
#
# Usage: verify_examples.sh <bin-dir> <examples-dir>
set -eu

BIN="$1"
EXAMPLES="$2"
WORK="${TMPDIR:-/tmp}/elfie_verify_examples"
rm -rf "$WORK"
mkdir -p "$WORK"

# Fails loudly unless "$@" prints one strict JSON document containing the
# text in $EXPECT (an exit status of its own is judged by that text).
check_json() {
  OUT=$("$@") || true
  if ! printf '%s\n' "$OUT" |
      python3 -c 'import json,sys; json.load(sys.stdin)'; then
    echo "verify-examples: FAILED (invalid JSON): $*" >&2
    printf '%s\n' "$OUT" >&2
    exit 1
  fi
  if ! printf '%s\n' "$OUT" | grep -qF "$EXPECT"; then
    echo "verify-examples: FAILED (no $EXPECT): $*" >&2
    printf '%s\n' "$OUT" >&2
    exit 1
  fi
}

# Fails loudly when the everify JSON report carries any error finding.
check() {
  EXPECT='"errors":0' check_json "$@"
}

echo "== quickstart pipeline =="
"$EXAMPLES/quickstart" > "$WORK/quickstart.log" 2>&1
PB=/tmp/elfie_quickstart/region.pb
ELFIE=/tmp/elfie_quickstart/region.elfie

# The emitter self-check across all three targets.
"$BIN/pinball2elf" -verify -o "$WORK/r.elfie" "$PB" 2>> "$WORK/verify.log"
"$BIN/pinball2elf" -verify -target guest -o "$WORK/r.gelfie" "$PB" \
  2>> "$WORK/verify.log"
"$BIN/pinball2elf" -verify -target object -o "$WORK/r.o" "$PB" \
  2>> "$WORK/verify.log"

# The standalone verifier, cross-checked against the source pinball.
check "$BIN/everify" -json -markers 1 -pinball "$PB" "$ELFIE"
check "$BIN/everify" -json -markers 1 -pinball "$PB" "$WORK/r.gelfie"
check "$BIN/everify" -json -pinball "$PB" "$WORK/r.o"

# The CFG analyzer over the pinball and both executable ELFie flavours:
# zero CODE.* errors, and every reachable syscall family provisioned.
check_cfg() {
  check "$@"
  if ! echo "$OUT" | grep -q '"unprovisioned":\[\]'; then
    echo "verify-examples: FAILED (unprovisioned syscalls): $*" >&2
    echo "$OUT" >&2
    exit 1
  fi
}
check_cfg "$BIN/ecfg" -json "$PB"
check_cfg "$BIN/ecfg" -json -pinball "$PB" "$ELFIE"
check_cfg "$BIN/ecfg" -json -pinball "$PB" "$WORK/r.gelfie"

echo "== -json under a quoted path =="
# Paths reach the reports verbatim, so they must come out escaped.
Q="$WORK/q\"d\\x"
mkdir -p "$Q"
cp -r "$PB" "$Q/pb"
EXPECT='"failures":0' check_json \
  "$BIN/efault" -runs 2 -seed 1 -json -scratch "$WORK/fs" "$Q/pb"
"$BIN/estore" put "$Q/pool" "$ELFIE" > /dev/null
EXPECT='"manifests":1' check_json "$BIN/estore" stats -json "$Q/pool"

echo "== sysstate_files pipeline =="
"$EXAMPLES/sysstate_files" > "$WORK/sysstate.log" 2>&1
check "$BIN/everify" -json \
  -sysstate /tmp/elfie_example_sysstate/region.pb.sysstate \
  /tmp/elfie_example_sysstate/region.elfie
# This pipeline keeps only the ELFie (the pinball is transient): ecfg
# recovers the seeds from the packed thread contexts instead.
check_cfg "$BIN/ecfg" -json /tmp/elfie_example_sysstate/region.elfie

echo "verify-examples: all example ELFies verified clean"
