"""Command-line surface.

Commands: ``normalize``, ``classify``, ``closure``, ``train``, ``eval``,
``sample-check``, ``toy-demo``.  Global flag: ``--seed`` (overrides config
seeds); ``train`` and ``eval`` take ``--config`` after the command name.  The
``ELKBC_CACHE_DIR`` environment variable supplies the default output directory
for commands that write one.

Config files are flat ``key=value`` text (``#`` comments) or a JSON object
with the same keys; unknown keys are rejected and referenced input paths must
exist when the config is parsed.

Exit codes: 0 success, 1 user error, 2 resource/cap error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .closure import ClosureCapError, compute_closure
from .core import (
    BOT_ID,
    Theory,
    axiom_slots,
    axiom_tag,
    format_axiom,
    load_theory,
    parse_axiom,
    save_theory,
    signature_stats,
)
from .evaluation import RankingTask, filter_test_set, score_and_rank
from .losses import LOSS_VARIANTS, PARAM_LAYOUT
from .normalize import load_input, normalize
from .reasoner import classify, dump_subsumptions
from .sampling import SamplerConfig, entailed_fraction
from .toy import DEMO_SEED, REGIMES, geometry_assertions, train_regime
from .training import (
    TrainConfig,
    TrainingError,
    load_checkpoint,
    save_checkpoint,
    signature_hash,
    train,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_SCALARS = {"int": int, "float": float, "str": str}
#: sampler config key -> ``SamplerConfig`` field
_SAMPLER_KEYS = {"negative_mode": "mode", "bias_p": "bias_p", "retry_limit": "retry_limit"}


def _scalar_fields(cls) -> dict:
    """Field name -> type of the int, float and str fields of dataclass ``cls``."""
    return {f.name: _SCALARS[f.type] for f in dataclasses.fields(cls) if f.type in _SCALARS}


_TRAIN_KEYS = {
    **_scalar_fields(TrainConfig),
    **{key: _scalar_fields(SamplerConfig)[name] for key, name in _SAMPLER_KEYS.items()},
    "train_file": "in_path",
    "validation_file": "in_path",
    "checkpoint": "out_path",
    "log_file": "out_path",
}

_EVAL_KEYS = {
    "checkpoint": "in_path",
    "train_file": "in_path",
    "test_file": "in_path",
    "report": "out_path",
    "csv": "out_path",
    "candidates_file": "in_path",
    "filter": str,  # none | train | train+closure
    "filter_entailed_test": bool,
    "micro_over_signature": bool,
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, value, kind):
    if kind in ("in_path", "out_path"):
        return str(value)
    if kind is bool:
        if isinstance(value, bool):
            return value
        lowered = str(value).strip().lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise CliError(f"config key {key!r}: expected a boolean, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise CliError(f"config key {key!r}: expected {kind.__name__}, got {value!r}") from None


def read_config(path: str, schema: dict) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}")
    raw: dict = {}
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON config: {exc}")
        if not isinstance(raw, dict):
            raise CliError(f"{path}: JSON config must be an object")
    else:
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    cfg = {}
    for key, value in raw.items():
        if key not in schema:
            raise CliError(f"{path}: unknown config key {key!r}")
        cfg[key] = _coerce(key, value, schema[key])
    for key, kind in schema.items():
        if kind == "in_path" and key in cfg and not Path(cfg[key]).exists():
            raise CliError(f"{path}: {key} does not exist: {cfg[key]}")
        if kind == "out_path" and key in cfg:
            parent = Path(cfg[key]).parent
            if parent and not parent.exists():
                raise CliError(f"{path}: directory for {key} does not exist: {parent}")
    return cfg


def _default_out_dir() -> Path:
    return Path(os.environ.get("ELKBC_CACHE_DIR", "."))


def _load_matching(path: str, train_theory: Theory, key: str) -> Theory:
    """The theory in ``path``; its concept and role names must equal
    ``train_theory``'s, in order, because their axioms share ids."""
    theory = load_theory(path)
    for kind in ("concepts", "roles"):
        if getattr(theory.signature, kind).names() != getattr(train_theory.signature, kind).names():
            raise CliError(f"{key} {kind} must match train_file (same directives, same order)")
    return theory


def _build_closure(theory: Theory):
    """A query-only closure: train, eval and sample-check never enumerate."""
    index, hierarchy, _ = classify(theory)
    return compute_closure(theory, index, hierarchy, mode="oracle")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_normalize(args) -> int:
    axioms = load_input(args.input)
    theory, ledger = normalize(axioms)
    save_theory(theory, args.output)
    ledger_path = Path(args.output).with_suffix(Path(args.output).suffix + ".ledger")
    with open(ledger_path, "w", encoding="utf-8") as fh:
        for fresh, stands_for in ledger:
            fh.write(f"{fresh} = {stands_for}\n")
    stats = signature_stats(theory)
    print(f"wrote {args.output}: {len(theory.axioms)} axioms, |C|={stats['concepts']}, "
          f"|R|={stats['roles']}, fresh names: {len(ledger)}")
    return 0


def cmd_classify(args) -> int:
    theory = load_theory(args.theory)
    index, _, _ = classify(theory)
    text = dump_subsumptions(theory, index)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_closure(args) -> int:
    theory = load_theory(args.theory)
    index, hierarchy, _ = classify(theory)
    if args.query:
        dc = compute_closure(theory, index, hierarchy, mode="oracle")
        ax = parse_axiom(args.query, theory.signature)
        print("true" if dc.entails(ax) else "false")
        return 0
    try:
        dc = compute_closure(
            theory, index, hierarchy, mode="materialized", materialize_cap=args.cap
        )
    except ClosureCapError as exc:
        raise CliError(f"{exc} (rerun with --query for on-demand entailment)", code=2)
    out_dir = Path(args.out) if args.out else _default_out_dir() / "closure"
    out_dir.mkdir(parents=True, exist_ok=True)
    sig = theory.signature
    for tag in LOSS_VARIANTS:
        # each line is written as it is produced, so no file is held in memory
        with (out_dir / f"{tag.lower()}.nf").open("w", encoding="utf-8") as f:
            for ax in dc.iter_variant(tag):
                if tag.endswith("_BOT") and BOT_ID in axiom_slots(ax):
                    # Bot-conjunct disjointness members are trivially true and
                    # have no line form (the tag already implies Bot); counts
                    # still include them
                    continue
                print(format_axiom(sig, ax), file=f)
    for tag, count in dc.counts().items():
        print(f"{tag}\t{count}")
    return 0


def _sampler_from_cfg(cfg: dict) -> SamplerConfig:
    # the sampler keys a config sets; the rest keep SamplerConfig's defaults
    return SamplerConfig(**{name: cfg[key] for key, name in _SAMPLER_KEYS.items() if key in cfg})


def cmd_train(args) -> int:
    if not args.config:
        raise CliError("train requires --config")
    cfg = read_config(args.config, _TRAIN_KEYS)
    if "train_file" not in cfg:
        raise CliError("config must set train_file")
    theory = load_theory(cfg["train_file"])
    validation = None
    if "validation_file" in cfg:
        validation = list(_load_matching(cfg["validation_file"], theory, "validation_file").axioms)
    sampler = _sampler_from_cfg(cfg)
    # config keys named like TrainConfig fields set them; the rest keep its defaults
    given = {f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig) if f.name in cfg}
    if args.seed is not None:
        given["seed"] = args.seed
    given.update(sampler=sampler, validation=validation)
    train_cfg = TrainConfig(**given)
    dc = None
    if sampler.mode in ("filtered", "biased"):
        dc = _build_closure(theory)
    model, log = train(theory, train_cfg, dc)
    checkpoint = cfg.get("checkpoint", str(_default_out_dir() / "model.ckpt"))
    save_checkpoint(model, checkpoint, sig_hash=signature_hash(theory),
                    extra={k: v for k, v in cfg.items() if isinstance(v, (int, float, str))})
    log_file = cfg.get("log_file", checkpoint + ".log.json")
    Path(log_file).write_text(json.dumps(log, indent=2), encoding="utf-8")
    print(f"wrote {checkpoint} ({len(log)} epochs, final val loss "
          f"{log[-1]['val_loss']:.6f})")
    return 0


def cmd_eval(args) -> int:
    if not args.config:
        raise CliError("eval requires --config")
    cfg = read_config(args.config, _EVAL_KEYS)
    for key in ("checkpoint", "train_file", "test_file"):
        if key not in cfg:
            raise CliError(f"config must set {key}")
    model, header = load_checkpoint(cfg["checkpoint"])
    train_theory = load_theory(cfg["train_file"])
    if header.get("signature_hash") and header["signature_hash"] != signature_hash(train_theory):
        raise CliError("checkpoint signature hash does not match train_file")
    test_axioms = list(_load_matching(cfg["test_file"], train_theory, "test_file").axioms)

    filter_mode = cfg.get("filter", "none")
    closures = ()
    if filter_mode not in ("none", "train", "train+closure"):
        raise CliError(f"unknown filter mode {filter_mode!r}")
    if filter_mode == "train+closure" or cfg.get("filter_entailed_test", False):
        dc = _build_closure(train_theory)
        if filter_mode == "train+closure":
            closures = (dc,)
        if cfg.get("filter_entailed_test", False):
            test_axioms, removed = filter_test_set(test_axioms, dc)
            print(f"removed {removed} entailed test axioms")
            if not test_axioms:
                raise CliError("no test axioms left after entailment filtering")

    if "candidates_file" in cfg:
        names = Path(cfg["candidates_file"]).read_text(encoding="utf-8").split()
        candidates = [train_theory.signature.concepts.id_of(n) for n in names]
    else:
        candidates = list(range(train_theory.n_concepts))
    task = RankingTask(
        axioms=test_axioms,
        candidates=candidates,
        train_axioms=frozenset(train_theory.axioms) if filter_mode != "none" else frozenset(),
        closures=closures,
        micro_over_signature=cfg.get("micro_over_signature", False),
    )
    report = score_and_rank(model, task)
    report_json = report.to_json(task_name=Path(cfg["test_file"]).stem)
    if "report" in cfg:
        Path(cfg["report"]).write_text(report_json, encoding="utf-8")
    if "csv" in cfg:
        Path(cfg["csv"]).write_text(report.to_csv(), encoding="utf-8")
    print(report_json)
    return 0


def cmd_sample_check(args) -> int:
    theory = load_theory(args.theory)
    dc = _build_closure(theory)
    axioms = [ax for ax in theory.axioms if axiom_tag(ax) in LOSS_VARIANTS]
    if args.variant:
        axioms = [ax for ax in axioms if axiom_tag(ax) == args.variant]
    if not axioms:
        raise CliError("theory has no corruptible axioms of the requested variant")
    cfg = SamplerConfig(mode="biased" if args.bias > 0 else "random", bias_p=args.bias)
    fraction, n = entailed_fraction(axioms, args.count, cfg, dc, seed=args.seed or 0)
    print(f"entailed fraction: {fraction:.4f} ({n} samples, bias {args.bias})")
    return 0


def cmd_toy_demo(args) -> int:
    out_dir = Path(args.out) if args.out else _default_out_dir() / "toy-demo"
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else DEMO_SEED
    summary = {}
    for regime in REGIMES:
        model, log, theory = train_regime(regime, seed=seed, model_tag=args.model)
        regime_dir = out_dir / regime
        regime_dir.mkdir(exist_ok=True)
        _write_toy_csv(model, theory, regime_dir)
        assertions = geometry_assertions(model, theory)
        payload = [dataclasses.asdict(a) for a in assertions]
        (regime_dir / "assertions.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        n_pass = sum(a.passed for a in assertions)
        summary[regime] = f"{n_pass}/{len(assertions)}"
        print(f"{regime}: {n_pass}/{len(assertions)} geometry assertions hold "
              f"(final loss {log[-1]['train_loss']:.4f})")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return 0


def _write_toy_csv(model, theory, out_dir: Path) -> None:
    """concepts.csv: name, center, then radius (elem) or offset; roles.csv:
    name, then every role block in ``PARAM_LAYOUT`` order."""
    extent = "class_radius" if model.tag == "elem" else "class_offset"
    header = ["name"] + [f"c{i}" for i in range(model.dim)]
    header += ["radius"] if model.tag == "elem" else [f"o{i}" for i in range(model.dim)]
    roles = [name for name, (kind, _) in PARAM_LAYOUT[model.tag].items() if kind == "role"]

    def lines(names, count: int, blocks) -> list[str]:
        return [
            ",".join([names.name_of(i)] + [
                f"{x:.6f}" for block in blocks for x in model.params[block][i : i + 1].ravel()
            ])
            for i in range(count)
        ]

    sig = theory.signature
    concepts = lines(sig.concepts, theory.n_concepts, ["class_center", extent])
    (out_dir / "concepts.csv").write_text(
        ",".join(header) + "\n" + "\n".join(concepts) + "\n", encoding="utf-8"
    )
    role_lines = lines(sig.roles, theory.n_roles, roles)
    (out_dir / "roles.csv").write_text("\n".join(role_lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elkbc",
        description="EL++ normalization, reasoning, deductive closure, geometric "
        "embedding training and knowledge-base-completion evaluation.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override configured seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite .elpp axioms into normal forms")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="dump the entailed subsumption hierarchy")
    p.add_argument("theory")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("closure", help="materialize or query the deductive closure")
    p.add_argument("theory")
    p.add_argument("--out", default=None, help="output directory for per-variant files")
    p.add_argument("--query", default=None, help="axiom line to test for entailment")
    p.add_argument("--cap", type=int, default=10**8, help="|C|^3 materialization cap")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("train", help="train a geometric model (needs --config)")
    p.add_argument("--config", dest="config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test axioms with a trained model (needs --config)")
    p.add_argument("--config", dest="config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample-check", help="report the entailed fraction of sampled negatives")
    p.add_argument("theory")
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--variant", default=None, choices=list(LOSS_VARIANTS))
    p.set_defaults(func=cmd_sample_check)

    p = sub.add_parser("toy-demo", help="train the 2D toy ontology under four regimes")
    p.add_argument("--model", default="elem", choices=["elem", "elbe", "box2el"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_toy_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ClosureCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ValueError, KeyError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
