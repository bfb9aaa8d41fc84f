"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values as a
share of their median, next to the metric's bound from ``BENCHMARK.json``.

Run from the repository root, one benchmark process at a time::

    python3 perfbench/steady.py --workloads dag-train foodon-rank --seeds 10

A spread at or under a third of the bound is marked ``ok``.  The summary is
also written to ``perfbench/results/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0 .. N-1")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    summary = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.seeds):
            result, wall = run_once(workload, seed, args.seconds, trace=0)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: correctness gate failed")
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall", file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            spread = relative_spread(vals)
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady &= ok
            rows[name] = {"q1": q1, "median": q2, "q3": q3, "spread": spread,
                          "bound": bounds[name], "ok": ok, "values": vals}
            print(f"{workload:15s} {name:28s} median {q2:12.4f} spread {spread:7.4f} "
                  f"bound {bounds[name]:5.2f} {'ok' if ok else 'WIDE'}")
        print(f"{workload:15s} wall per run: median {sorted(walls)[len(walls) // 2]:.1f}s, "
              f"max {max(walls):.1f}s")
        summary[workload] = {"metrics": rows, "wall_s": walls}
    out = ROOT / "perfbench" / "results" / f"steady-{'-'.join(args.workloads)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
