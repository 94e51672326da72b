#!/bin/sh
# Same-runner A/B of perfbench: the checkout against a base revision.
#
#   sh .github/perf-ab.sh BASE_REV
#
# Builds BASE_REV in a temporary git worktree and the checkout (with any
# uncommitted edits) in place, then runs
#   sh perfbench/run.sh --workload W --seed 1 --seconds S --trace 0
# for every workload W of BENCHMARK.json in alternating pairs: odd pairs
# run the base first, even pairs the checkout first.  S is BENCHMARK.json's
# run_seconds.
#
# Fails when, for any end-to-end metric of BENCHMARK.json and any workload,
# the checkout's median over the pairs is worse than the base's median by
# more than the metric's bound (a fraction of the base median).  Also fails
# when a checkout run reports "correct": false or the checkout's runs fail
# more operations than the base's.  Each line also shows the quartiles of
# the base's own runs: a change smaller than their spread is noise.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: sh .github/perf-ab.sh BASE_REV" >&2
  exit 2
fi
pairs=5

head=$(git rev-parse --show-toplevel)
cd "$head"
base_sha=$(git rev-parse --verify "$1^{commit}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

tmp=$(mktemp -d)
cleanup() {
  git -C "$head" worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$tmp/base" "$base_sha"

for dir in "$tmp/base" "$head"; do
  DUNE_CACHE=disabled dune build --root "$dir" --display quiet \
    --no-print-directory ./perfbench/perfbench.exe
done

# run SIDE WORKLOAD PAIR: one perfbench run; its result line goes to
# $tmp/SIDE-WORKLOAD-PAIR.json
run() {
  if [ "$1" = base ]; then dir=$tmp/base; else dir=$head; fi
  out=$tmp/$1-$2-$3
  if ! (cd "$dir" && sh perfbench/run.sh --workload "$2" --seed 1 \
          --seconds "$seconds" --trace 0) > "$out.log" 2> "$out.err"; then
    cat "$out.err" >&2
    echo "perf-ab: $1 run of $2 failed" >&2
    exit 1
  fi
  tail -n 1 "$out.log" > "$out.json"
}

i=1
while [ "$i" -le "$pairs" ]; do
  for w in $workloads; do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
      echo "perf-ab: pair $i/$pairs $w $side" >&2
      run "$side" "$w" "$i"
    done
  done
  i=$((i + 1))
done

python3 - "$tmp" "$pairs" "$base_sha" <<'EOF'
import json, statistics, sys

tmp, pairs, base_sha = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
failures = []
print(f"checkout vs {base_sha[:12]}: medians of {pairs} alternating pairs")
for w in (x["name"] for x in bench["workloads"]):
    runs = {side: [json.load(open(f"{tmp}/{side}-{w}-{i}.json"))
                   for i in range(1, pairs + 1)]
            for side in ("base", "head")}
    if not all(r["correct"] for r in runs["head"]):
        failures.append(f"{w}: a run reported correct: false")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    if failed["head"] > failed["base"]:
        failures.append(f"{w}: {failed['head']} failed operations, "
                        f"base {failed['base']}")
    for m in bench["end_to_end"]:
        name = m["name"]
        if name not in runs["base"][0]["metrics"]:
            continue
        vals = {side: [r["metrics"][name]["value"] for r in rs]
                for side, rs in runs.items()}
        b, h = statistics.median(vals["base"]), statistics.median(vals["head"])
        q1, _, q3 = statistics.quantiles(vals["base"], n=4)
        if b:
            change = (h - b) / abs(b)
        else:
            change = 0.0 if h == b else float("inf") if h > b else float("-inf")
        worse = change if m["better"] == "lower" else -change
        bad = worse > m["bound"]
        print(f"{'FAIL' if bad else 'ok':4s} {w:12s} {name:25s} "
              f"base {b:14.4f} (IQR {q1:.4f}-{q3:.4f})  "
              f"checkout {h:14.4f}  {change:+7.1%} (bound {m['bound']:.0%})")
        if bad:
            failures.append(f"{w} {name}: {change:+.1%} "
                            f"(bound {m['bound']:.0%}, better {m['better']})")
if failures:
    sys.exit("perf-ab: " + "; ".join(failures))
print("perf-ab: every workload within its bounds")
EOF
