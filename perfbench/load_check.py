"""Fixed-work check: two runs of one seed that differ only in host load.

    python3 perfbench/load_check.py [WORKLOAD] [SEED] [SECONDS]

Runs the benchmark once on an idle host and once beside two busy-looping
processes, then requires the exact metrics, attempted/failed and the run
digest to match byte for byte.  Host-time metrics are printed side by
side and may differ.  Exits 1 on any difference.  Defaults: serve-smp,
seed 1, 3 seconds of work (the one workload whose units can fail).
"""

import json
import subprocess
import sys

EXACT = ["heap_peak_mb", "minor_words_per_sim_insn", "sim_cycles_per_op",
         "sim_cycles_p99", "traps_per_op", "paper_err_pct"]


def run(workload, seed, seconds):
    out = subprocess.run(
        ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    digest = next(l for l in out if l.startswith("# run digest"))
    return digest, json.loads(out[-1])


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "serve-smp"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    seconds = sys.argv[3] if len(sys.argv) > 3 else "3"
    idle = run(workload, seed, seconds)
    burners = [subprocess.Popen(["sh", "-c", "while :; do :; done"])
               for _ in range(2)]
    try:
        loaded = run(workload, seed, seconds)
    finally:
        for b in burners:
            b.kill()
        for b in burners:
            b.wait()
    ok = True
    for label, (digest, r) in (("idle", idle), ("loaded", loaded)):
        print(f"{label:7s} {digest}  attempted {r['attempted']} failed {r['failed']}")
    if idle[0] != loaded[0]:
        ok = False
    for key in ("attempted", "failed", "correct"):
        if idle[1][key] != loaded[1][key]:
            print(f"DIFFERENT {key}: {idle[1][key]} vs {loaded[1][key]}")
            ok = False
    for name, m in idle[1]["metrics"].items():
        a, b = m["value"], loaded[1]["metrics"][name]["value"]
        same = repr(a) == repr(b)
        if name in EXACT and not same:
            ok = False
        tag = "exact" if name in EXACT else "host"
        print(f"{name:28s} {tag:5s} {a!r:>24} {b!r:>24} {'same' if same else 'differs'}")
    print("fixed-work check:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
