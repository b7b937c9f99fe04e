#!/usr/bin/env bash
# CI figure-regression drill for the figcheck harness:
#
#   1. run the quick-volume suite journaled — the expectation set must pass;
#   2. replay the journal — the mcgpu-figcheck-v1 report must be
#      byte-identical;
#   3. SIGKILL a fresh journaled run mid-sweep — as soon as its journal
#      holds a record, so the kill lands while cells are still running —
#      resume it (interrupted cells re-run from cycle 0), and require the
#      same report bytes again;
#   4. score a deliberately-impossible `shape` expectation (exit must be 2)
#      and an impossible `magnitude` expectation (exit must be 0): the gate
#      fires on shape only.
#
# Usage: scripts/ci_figcheck.sh  (from the repository root)
set -u -o pipefail

RES=results/ci_figcheck
rm -rf "$RES"
mkdir -p "$RES"

cargo build --release -p sac-bench --bin figcheck || exit 1

# 1. Full quick-volume run, journaled.
target/release/figcheck --quick --journal "$RES/suite.jsonl" \
    --report "$RES/a.json" | tee "$RES/a.scorecard"
RC=${PIPESTATUS[0]}
if (( RC != 0 )); then
    echo "FAIL: figcheck exited $RC on the quick sweep" >&2
    exit 1
fi

# 2. Replay the journal: nothing is re-simulated, the report must not
# change by a byte.
target/release/figcheck --quick --resume "$RES/suite.jsonl" \
    --report "$RES/b.json" > /dev/null || {
    echo "FAIL: journal replay did not complete" >&2
    exit 1
}
if ! cmp -s "$RES/a.json" "$RES/b.json"; then
    echo "FAIL: replayed report differs from the original" >&2
    exit 1
fi
echo "PASS: journal replay reproduced the report byte-identically"

# 3. Kill a fresh run mid-sweep: poll its journal and send SIGKILL as
# soon as the first cell is recorded, so the kill lands with some cells
# journaled and the rest unrecorded or running. Then resume: recorded
# cells replay, the rest re-run from cycle 0, and the report must not
# change by a byte.
CELLS=80
target/release/figcheck --quick --journal "$RES/kill.jsonl" \
    --report "$RES/c.json" > /dev/null &
PID=$!
recorded() {
    if [[ -f "$RES/kill.jsonl" ]]; then wc -l < "$RES/kill.jsonl"; else echo 0; fi
}
while (( $(recorded) < 1 )); do
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: sweep exited before journaling its first cell" >&2
        exit 1
    fi
    sleep 0.05
done
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
RECORDED=$(recorded)
echo "journal holds $RECORDED of $CELLS record(s) at kill time"
if (( RECORDED >= CELLS )); then
    echo "FAIL: the sweep finished before the kill; the drill interrupted nothing" >&2
    exit 1
fi
target/release/figcheck --quick --resume "$RES/kill.jsonl" \
    --report "$RES/c.json" 2> "$RES/resume.log" > /dev/null || {
    cat "$RES/resume.log" >&2
    echo "FAIL: resumed sweep did not complete" >&2
    exit 1
}
if ! cmp -s "$RES/a.json" "$RES/c.json"; then
    echo "FAIL: report differs after SIGKILL + resume" >&2
    exit 1
fi
echo "PASS: SIGKILL after $RECORDED of $CELLS cells + resume reproduced the report byte-identically"

# 4a. A shape expectation that cannot hold must gate (exit 2). Scored off
# the existing journal so no cell is re-simulated.
cat > "$RES/shape_drill.json" <<'EOF'
{
  "schema": "mcgpu-expect-v1",
  "source": "ci shape gating drill",
  "expectations": [
    {
      "id": "drill/RN/impossible",
      "figure": "fig08",
      "severity": "shape",
      "check": {
        "kind": "band",
        "value": {"metric": "speedup", "bench": "RN", "org": "SM-side"},
        "lo": 100.0,
        "hi": 200.0
      },
      "note": "CI drill: must fail and gate."
    }
  ]
}
EOF
target/release/figcheck --quick --resume "$RES/suite.jsonl" \
    --expectations "$RES/shape_drill.json" > /dev/null
RC=$?
if (( RC != 2 )); then
    echo "FAIL: impossible shape expectation exited $RC, want 2" >&2
    exit 1
fi
echo "PASS: shape violation gates with exit 2"

# 4b. The same impossible band at magnitude severity must warn, not gate.
sed 's/"severity": "shape"/"severity": "magnitude"/' \
    "$RES/shape_drill.json" > "$RES/magnitude_drill.json"
target/release/figcheck --quick --resume "$RES/suite.jsonl" \
    --expectations "$RES/magnitude_drill.json" > /dev/null
RC=$?
if (( RC != 0 )); then
    echo "FAIL: magnitude-only drift exited $RC, want 0" >&2
    exit 1
fi
echo "PASS: magnitude drift warns without gating"
