"""Pipeline benchmark for elkbc: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload dag-train --seed 0 --seconds 30 --trace 0

``--trace 0`` sets up three times (``setup_s`` is the median) and then runs
rounds -- one ``train`` call, one raw and one filtered ``score_and_rank`` --
until ``--seconds`` have passed, at least two; each throughput is the work of
all rounds over their summed time.  Every timed call sits between two
calibrations and is reported in reference-speed seconds
(``workloads.reference_seconds``).  ``--trace 1``
sets up once, then alternates untraced rounds with rounds traced by spans and
counters around elkbc's entry points; it prints the per-layer metrics, the
tracing overhead among them.  Both modes check the correctness gates and
print, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata goes to a ``# meta``
line and, with the spans of a traced run, to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

from layers import END_TO_END, PER_LAYER, layer_metrics
from stats import failed_frac, median
from tracing import Probe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_ROUNDS = 2
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; call before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in _THREAD_VARS}


def import_library():
    """Import elkbc from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "elkbc"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no elkbc sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import elkbc

    if Path(elkbc.__file__).resolve().parent != package.resolve():
        raise ImportError(f"elkbc imported from {elkbc.__file__}, not {package}")
    return elkbc


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "elkbc").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, thread_env: dict, wl_params: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl_params,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": thread_env,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(plan, seconds: float, arms: list[tuple[Tracer, Probe]]):
    """Rounds until ``seconds`` have passed and every arm ran MIN_ROUNDS.

    An arm is a tracer plus a probe installed for its rounds; arms take turns.
    A deep probe keeps its first round's negatives for gate (b).  Returns each
    arm's rounds and the last round's model.
    """
    import workloads

    results: list[list] = [[] for _ in arms]
    model = None
    start = time.perf_counter()
    while min(map(len, results)) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for (tracer, probe), rounds in zip(arms, results):
            probe.keep_negatives = probe.deep and not rounds
            with probe:
                rnd, model = workloads.run_round(plan, tracer)
            rounds.append(rnd)
    return results, model


@dataclass
class Part:
    """What one input contributed to a run; its set-up is released once the
    part is done, so a run holds one input's closure at a time."""

    seed: int
    n_train: int  # loss-bearing train axioms
    n_rank: int  # test axioms per ranking call
    unresolved_test: int
    subsumptions: int
    setup_s: list[float]  # as measured
    setup_ref_s: list[float]  # in reference-speed seconds
    rounds: list  # the measured rounds; the traced ones in a traced run
    plain: list  # the untraced rounds of a traced run
    probe: Probe  # counts of the measured rounds


def _run_part(wl, seed: int, seconds: float, tracer: Tracer, traced: bool):
    """Set up one input, measure its rounds for ``seconds`` and check its
    gates; returns the part and the gate failures."""
    import workloads

    inputs = workloads.make_inputs(wl, seed)
    probe = Probe(tracer, deep=traced)
    setups = 1 if traced else -(-SETUPS // wl.inputs_per_run)
    ready, setup_s, setup_ref_s = _setups(wl, inputs, tracer, setups)
    plan = workloads.prepare(wl, ready, inputs, seed)
    if traced:
        untraced = Tracer(tracer.run_id)
        arms = [(untraced, Probe(untraced, deep=False)), (tracer, probe)]
        (plain, rounds), model = _measure(plan, seconds, arms)
    else:
        (rounds,), model = _measure(plan, seconds, [(tracer, probe)])
        plain = []
    failures = workloads.check_gates(wl, plan, plain + rounds, model, probe.negatives, seed)
    probe.negatives = []
    part = Part(
        seed=seed,
        n_train=plan.n_train,
        n_rank=len(plan.raw_task.axioms),
        unresolved_test=plan.unresolved_test,
        subsumptions=ready.subsumptions,
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        rounds=rounds,
        plain=plain,
        probe=probe,
    )
    return part, failures


def _run_parts(wl, args, tracer: Tracer, traced: bool):
    """Every input of the run in turn, each measured for an equal share of
    ``--seconds``."""
    import workloads

    seeds = workloads.input_seeds(wl, args.seed)
    parts, failures = [], []
    for seed in seeds:
        part, part_failures = _run_part(wl, seed, args.seconds / len(seeds), tracer, traced)
        parts.append(part)
        prefix = f"input seed {seed}: " if len(seeds) > 1 else ""
        failures += [prefix + f for f in part_failures]
    return parts, failures


def _counts(parts: list[Part]) -> tuple[int, int]:
    """(attempted, failed): negatives requested and skipped, plus test axioms
    ranked and those in ranking calls that raised."""
    attempted = failed = 0
    for p in parts:
        attempted += p.probe.requested + 2 * p.n_rank * len(p.rounds)
        failed += p.probe.skipped + p.n_rank * sum(
            (r.raw is None) + (r.filtered is None) for r in p.rounds
        )
    return attempted, failed


def _throughputs(parts: list[Part]) -> dict[str, float]:
    """Work of all rounds over their summed reference-speed seconds."""

    def rate(work, seconds) -> float:
        return sum(work) / sum(seconds)

    rounds = [(p, r) for p in parts for r in p.rounds]
    return {
        "train_axioms_per_s": rate(
            (len(r.log) * p.n_train for p, r in rounds), (r.train_ref_s for _, r in rounds)
        ),
        "rank_raw_axioms_per_s": rate(
            (p.n_rank if r.raw else 0 for p, r in rounds), (r.raw_ref_s for _, r in rounds)
        ),
        "rank_filtered_axioms_per_s": rate(
            (p.n_rank if r.filtered else 0 for p, r in rounds),
            (r.filtered_ref_s for _, r in rounds),
        ),
    }


def _setups(wl, inputs, tracer: Tracer, count: int):
    """``count`` set-ups; returns the last, and each one's time as measured
    and in reference-speed seconds."""
    import workloads

    seconds, ref_seconds, ready = [], [], None
    for _ in range(count):
        ready = None  # release the previous set-up before timing the next
        before = workloads.settle()
        ready = workloads.setup(wl, inputs, tracer)
        seconds.append(ready.seconds)
        after = workloads.calibrate()
        ref_seconds.append(workloads.reference_seconds(ready.seconds, before, after))
    return ready, seconds, ref_seconds


def run_untraced(wl, args, run_id: str):
    tracer = Tracer(run_id)
    parts, failures = _run_parts(wl, args, tracer, traced=False)
    attempted, failed = _counts(parts)
    metrics = {
        "setup_s": median(s for p in parts for s in p.setup_ref_s),
        **_throughputs(parts),
        "peak_rss_mb": _peak_rss_mb(),
        "completed_frac": 1.0 - failed_frac(failed, attempted),
    }
    return metrics, attempted, failed, failures, _info(parts), None


def run_traced(wl, args, run_id: str):
    """One set-up per input, then untraced and traced rounds in turn: the
    traced ones give the per-layer metrics, the pair the tracing overhead."""
    tracer = Tracer(run_id)
    parts, failures = _run_parts(wl, args, tracer, traced=True)
    attempted, failed = _counts(parts)
    rounds = [r for p in parts for r in p.rounds]
    plain = [r for p in parts for r in p.plain]
    last = rounds[-1].filtered
    counts = {
        "reasoner.subsumptions": fmean(p.subsumptions for p in parts),
        "requested": sum(p.probe.requested for p in parts),
        "emitted": sum(p.probe.emitted for p in parts),
        "skipped": sum(p.probe.skipped for p in parts),
        "axioms_scored": sum(p.probe.axioms_scored for p in parts),
        "pool_size_mean": fmean(r.pool_size for r in last.rankings) if last else 0.0,
        "filtered_pool_size_mean": (
            fmean(r.filtered_pool_size for r in last.rankings) if last else 0.0
        ),
        # traced and untraced rounds alternate, as many of each per input
        "trace.overhead_frac": (
            sum(r.ref_seconds for r in rounds) / sum(r.ref_seconds for r in plain)
            * len(plain) / len(rounds) - 1.0
        ),
    }
    metrics = layer_metrics(tracer.spans, counts, n_setups=len(parts), n_rounds=len(rounds))
    info = _info(parts)
    for p, part_info in zip(parts, info["inputs"]):
        part_info["untraced_round_s"] = [r.seconds for r in p.plain]
    return metrics, attempted, failed, failures, info, tracer.to_json()


def _info(parts: list[Part]) -> dict:
    inputs = []
    for p in parts:
        last = p.rounds[-1]
        info = {
            "seed": p.seed,
            "setup_s": p.setup_s,
            "setup_reference_s": p.setup_ref_s,
            "rounds": len(p.rounds),
            "round_s": [r.seconds for r in p.rounds],
            "train_s": [r.train_s for r in p.rounds],
            "rank_raw_s": [r.raw_s for r in p.rounds],
            "rank_filtered_s": [r.filtered_s for r in p.rounds],
            "reference_s": [[r.train_ref_s, r.raw_ref_s, r.filtered_ref_s] for r in p.rounds],
            "train_axioms": p.n_train,
            "epochs": len(last.log),
            "ranked_axioms": p.n_rank,
            "unresolved_test_pairs": p.unresolved_test,
            "final_epoch": last.log[-1],
        }
        if last.filtered is not None:
            keys = ("H@10", "F_H@10", "macro_AUC", "F_macro_AUC")
            info["ranking"] = {k: last.filtered.metrics[k] for k in keys}
        inputs.append(info)
    return {"inputs": inputs}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_env = cap_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import elkbc: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    meta = metadata(args, thread_env, workloads.params(wl))
    meta["input_seeds"] = workloads.input_seeds(wl, args.seed)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    run_id = f"{args.workload}:{args.seed}:{os.getpid()}"
    run = run_traced if args.trace else run_untraced
    values, attempted, failed, failures, info, spans = run(wl, args, run_id)

    units = PER_LAYER if args.trace else {k: unit for k, (unit, _) in END_TO_END.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info["gate_failures"] = failures
    print("# info " + json.dumps(info, sort_keys=True), flush=True)
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "info": info, "result": result, "spans": spans}
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"perfbench: gate failed: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
