"""Steadiness check: two sets of runs of the same code, spreads against bounds.

    python3 perfbench/steady.py [--seeds 10] [--sets 2]

With `--seeds 1 --sets 1` it is a quick pass that prints every end-to-end
metric of every workload once, with units.

Runs perfbench/run.py once per (set, seed, workload), over every workload
of BENCHMARK.json at its run_seconds, each set with its own seeds, and
reports for every end-to-end metric of BENCHMARK.json:

  spread  (q3 - q1) / median over one set, quartiles as
          statistics.quantiles(values, n=4) gives them
  drift   how much worse the second set's median is than the first's,
          as a share of the first

A metric passes when each set's spread and the drift are within its
bound; the target for a steady benchmark is a spread below a third of the
bound.  Exits 1 when a check fails or a run reports incorrect output.  The summary is also written to
perfbench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: list[float], second: list[float], better: str) -> float:
    m1, m2 = statistics.median(first), statistics.median(second)
    worse = m2 - m1 if better == "lower" else m1 - m2
    return worse / m1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)
    metrics = bench["end_to_end"]

    values = {(s, w, m["name"]): [] for s in range(args.sets) for w in workloads for m in metrics}
    incorrect = []
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = 1000 * s + i + 1
            for w in workloads:
                line = run_once(w, seed, bench["run_seconds"])
                if not line["correct"] or line["failed"]:
                    incorrect.append((w, seed))
                for m in metrics:
                    values[s, w, m["name"]].append(line["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.5g} {v['unit']}" for k, v in line["metrics"].items()), flush=True)

    failed = bool(incorrect)
    summary = []
    print(f"\n{'workload':9} {'metric':14} {'bound':>6} {'spread1':>8} {'spread2':>8} {'drift':>8}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(values[s, w, name]) for s in range(args.sets)]
            d = drift(values[0, w, name], values[1, w, name], m["better"]) if args.sets == 2 else 0.0
            ok = d <= bound and all(x <= bound for x in spreads)
            steady = all(x < bound / 3 for x in spreads)
            verdict = ("ok" if steady else "ok, spread above bound/3") if ok else "FAIL"
            failed |= not ok
            cells = [f"{x:8.4f}" for x in spreads] + ["        "] * (2 - len(spreads))
            print(f"{w:9} {name:14} {bound:6.3f} {' '.join(cells)} {d:8.4f}  {verdict}")
            summary.append({"workload": w, "metric": name, "bound": bound, "spreads": spreads,
                            "drift": d, "verdict": verdict,
                            "medians": [statistics.median(values[s, w, name]) for s in range(args.sets)]})
    if incorrect:
        print(f"incorrect runs: {incorrect}")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"rows": summary, "incorrect": incorrect}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
