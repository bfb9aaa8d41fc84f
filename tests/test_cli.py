"""Command-line surface, end to end on small fixtures."""

import hashlib
import json
import struct
import tracemalloc

import pytest

from elkbc import cli
from elkbc.cli import main
from elkbc.core import load_theory, parse_theory, serialize_theory
from elkbc.datasets import layered_dag_benchmark
from elkbc.sampling import SamplerConfig
from elkbc.toy import golden_theory
from elkbc.training import TrainConfig

GOLDEN_NF = serialize_theory(golden_theory())

ELPP = """\
sub(and(one(GO1), one(GO2)), bot)
sub(and(A, B), bot)
sub(some(has_function, one(GO1)), B)
sub(some(has_function, one(GO2)), A)
instance(some(has_function, one(GO1)), P)
instance(some(has_function, one(GO2)), Q)
"""


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.nf"
    path.write_text(GOLDEN_NF, encoding="utf-8")
    return path


def test_normalize_writes_theory_and_ledger(tmp_path, capsys):
    src = tmp_path / "in.elpp"
    src.write_text(ELPP, encoding="utf-8")
    out = tmp_path / "out.nf"
    assert main(["normalize", str(src), str(out)]) == 0
    theory = load_theory(out)
    assert len(theory.axioms) == 6
    assert (tmp_path / "out.nf.ledger").exists()


def test_normalize_idempotent_on_normal_input(tmp_path):
    already_normal = "sub(A, B)\nsub(and(A, B), E)\nsub(A, some(r, B))\n"
    src = tmp_path / "in.elpp"
    src.write_text(already_normal, encoding="utf-8")
    out1 = tmp_path / "o1.nf"
    out2 = tmp_path / "o2.nf"
    assert main(["normalize", str(src), str(out1)]) == 0
    # re-expressing the output in the input grammar and normalizing again
    # reproduces the same axiom lines
    t = load_theory(out1)
    re_src = tmp_path / "re.elpp"
    lines = []
    names, roles = t.signature.concepts, t.signature.roles
    for ax in t.axioms:
        cls = type(ax).__name__
        if cls == "GCI0":
            lines.append(f"sub({names.name_of(ax.sub)}, {names.name_of(ax.sup)})")
        elif cls == "GCI1":
            lines.append(
                f"sub(and({names.name_of(ax.left)},{names.name_of(ax.right)}), "
                f"{names.name_of(ax.sup)})"
            )
        else:
            lines.append(
                f"sub({names.name_of(ax.sub)}, some({roles.name_of(ax.role)},"
                f"{names.name_of(ax.filler)}))"
            )
    re_src.write_text("\n".join(lines), encoding="utf-8")
    assert main(["normalize", str(re_src), str(out2)]) == 0
    assert sorted(out1.read_text().splitlines()) == sorted(out2.read_text().splitlines())


def test_normalize_malformed_line_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.elpp"
    src.write_text("sub(and(A,), B)\n", encoding="utf-8")
    out = tmp_path / "out.nf"
    assert main(["normalize", str(src), str(out)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_classify_dumps_golden_hierarchy(tmp_path, golden_file, capsys):
    assert main(["classify", str(golden_file)]) == 0
    out = capsys.readouterr().out
    assert "{P}\tB" in out
    assert "owl:Nothing\t{GO1}" in out
    assert "A\t{P}" not in out


def test_closure_writes_variant_files_and_counts(tmp_path, golden_file, capsys):
    out_dir = tmp_path / "closure"
    assert main(["closure", str(golden_file), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    counts = dict(line.split("\t") for line in stdout.strip().splitlines())
    assert counts["GCI0"] == "23"
    assert counts["GCI1_BOT"] == "13"
    gci2_lines = (out_dir / "gci2.nf").read_text().splitlines()
    assert "GCI2 {P} has_function {GO1}" in gci2_lines
    assert "GCI2 {P} has_function owl:Thing" in gci2_lines
    assert len([l for l in gci2_lines if l.startswith("GCI2 {P} ")]) == 2
    # the per-variant files parse as theories over the same names
    parse_theory(GOLDEN_NF + (out_dir / "gci1_bot.nf").read_text())


EMPTY = hashlib.sha256(b"").hexdigest()

#: sha256 of each file ``elkbc closure --out`` writes, and of the counts it prints
CLOSURE_DIGESTS = {
    "golden": {
        "gci0.nf": "ea70f2ca7374317ab3df297afe4bf99cb6efedf67031d3f171330eb042e6acb7",
        "gci0_bot.nf": EMPTY,
        "gci1.nf": "5ed53d904dfada4da15f7a8d8781df12d5daf46ca7019f9bbf9312a6d44e5c39",
        "gci1_bot.nf": "7ad213248b9665219c407c1c0e86f0c3aadec02e857215ceabe716a63163d256",
        "gci2.nf": "e8ba06fdee4c6ef4eb0e08ad8bf0b4c65fc9567c75f59a666f0c80f9d91710cb",
        "gci3.nf": "3fa74a8d4a3667e2393a9042c29ca6623496b4385b44805009f510c3879ece58",
        "gci3_bot.nf": EMPTY,
        "counts": "8e91f0433ede4904c9b1478a6c024bb5231fcf5e937d90517ef48ada801627ba",
    },
    "dag0": {
        "gci0.nf": "2f64e4104e81e963c0f5d4b1ad4eb19cc3ecd8de8d6da543801c843f2ca839a6",
        "gci0_bot.nf": EMPTY,
        "gci1.nf": "4af99bff01e549cba8e47d3e29633a50aff7468ac5ea2fdeb2c7b8e304060f58",
        "gci1_bot.nf": EMPTY,
        "gci2.nf": "cbdf48e2f7e5eab4ce636b66ff004c19f608e87317481c59ab9b3e8224924973",
        "gci3.nf": "f4b6d8eebcc14f9ba1e10edde0f44c12563eaa63f117dd87dde563797554e5eb",
        "gci3_bot.nf": EMPTY,
        "counts": "f543ce64c73ab8146000f317e5b61bcf3945c628edb7690b94e60e9cbcf463ae",
    },
}


@pytest.mark.parametrize("name", sorted(CLOSURE_DIGESTS))
def test_closure_output_is_pinned(tmp_path, capsys, name):
    """``elkbc closure`` writes the same seven files and counts, byte for
    byte, on the golden theory and a 60-class layered DAG."""
    theory = golden_theory() if name == "golden" else layered_dag_benchmark(0, n_concepts=60)[0]
    src, out_dir = tmp_path / "theory.nf", tmp_path / "closure"
    src.write_text(serialize_theory(theory), encoding="utf-8")
    assert main(["closure", str(src), "--out", str(out_dir)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    digests["counts"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == CLOSURE_DIGESTS[name]


def test_closure_query(golden_file, capsys):
    assert main(["closure", str(golden_file), "--query", "GCI0 {P} B"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["closure", str(golden_file), "--query", "GCI2 {P} has_function {GO2}"]) == 0
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize(
    "line",
    [
        "GCI0 {P} Unknown",  # name outside the signature
        "GCI2 {P} no_such_role {GO1}",  # role outside the signature
        "GCI9 {P} B",  # unknown tag
        "GCI0 {P}",  # wrong arity
        "GCI0 {P} B A",  # wrong arity
    ],
)
def test_closure_query_rejects_bad_lines(golden_file, capsys, line):
    assert main(["closure", str(golden_file), "--query", line]) == 1
    assert "error:" in capsys.readouterr().err


def test_closure_cap_exit_code(golden_file, capsys):
    assert main(["closure", str(golden_file), "--cap", "7"]) == 2


def test_sample_check_reports_fraction(golden_file, tmp_path, capsys):
    # random corruption occasionally hits provable axioms (the disjointness
    # pair has one provable corruption), so the fraction is small but real
    assert main(["sample-check", str(golden_file), "--count", "50"]) == 0
    frac = float(capsys.readouterr().out.split(":")[1].split("(")[0])
    assert 0.0 <= frac < 0.1
    # golden's GCI2 rows have no entailed corruption in the pool (only Top),
    # so the biased draws run on a row with one, C, among 62 candidates
    biased = tmp_path / "biased.nf"
    extra = "".join(f"#concept X{i}\n" for i in range(59))
    biased.write_text("GCI2 A r B\nGCI0 B C\n" + extra, encoding="utf-8")
    assert main(["sample-check", str(biased), "--count", "50", "--bias", "0.5",
                 "--variant", "GCI2"]) == 0
    frac = float(capsys.readouterr().out.split(":")[1].split("(")[0])
    assert 0.3 < frac < 0.7


@pytest.mark.parametrize("bias", ["0", "0.5"])
def test_sample_check_rejects_a_negative_count(golden_file, capsys, bias):
    assert main(["sample-check", str(golden_file), "--count", "-5", "--bias", bias]) == 1
    out, err = capsys.readouterr()
    assert "negative count" in err and "entailed fraction" not in out


def _write_train_config(tmp_path, train_file, **extra):
    cfg = {
        "model": "elem",
        "dim": 4,
        "learning_rate": 0.05,
        "epochs": 15,
        "batch_size": 16,
        "seed": 3,
        "negative_scope": "all-forms",
        "negative_mode": "filtered",
        "train_file": str(train_file),
        "checkpoint": str(tmp_path / "model.ckpt"),
        "log_file": str(tmp_path / "train.log.json"),
    }
    cfg.update(extra)
    path = tmp_path / "train.cfg"
    path.write_text("\n".join(f"{k}={v}" for k, v in cfg.items()), encoding="utf-8")
    return path, cfg


def test_train_and_eval_round_trip(tmp_path, golden_file, capsys):
    cfg_path, cfg = _write_train_config(tmp_path, golden_file)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "model.ckpt").exists()
    log = json.loads((tmp_path / "train.log.json").read_text())
    assert len(log) == 15
    assert all(set(e["active"]) == set(e["losses"]) for e in log)

    test_file = tmp_path / "test.nf"
    test_file.write_text(
        GOLDEN_NF.replace("GCI2 {P} has_function {GO1}\n", "")
        + "GCI2 {P} has_function {GO2}\n",
        encoding="utf-8",
    )
    # keep only the held-out axiom in the test file
    test_file.write_text(
        "\n".join(GOLDEN_NF.splitlines()[:6]) + "\nGCI2 {P} has_function {GO2}\n",
        encoding="utf-8",
    )
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(
        "\n".join(
            [
                f"checkpoint={tmp_path / 'model.ckpt'}",
                f"train_file={golden_file}",
                f"test_file={test_file}",
                f"report={tmp_path / 'report.json'}",
                f"csv={tmp_path / 'ranks.csv'}",
                "filter=train+closure",
            ]
        ),
        encoding="utf-8",
    )
    assert main(["eval", "--config", str(eval_cfg)]) == 0
    report1 = (tmp_path / "report.json").read_text()
    payload = json.loads(report1)
    assert payload["n_test"] == 1
    assert "macro_MR" in payload["metrics"]
    # determinism: evaluating the same checkpoint twice matches exactly
    assert main(["eval", "--config", str(eval_cfg)]) == 0
    assert (tmp_path / "report.json").read_text() == report1
    assert (tmp_path / "ranks.csv").read_text().startswith("axiom,")


@pytest.mark.parametrize(
    "setting",
    [
        "negatives_per_positive=-3",
        "learning_rate=-1",
        "patience=-1",
        "early_stop=0",
        "validation_file={tmp}/no_axioms.nf",
    ],
)
def test_train_rejects_out_of_range_settings(tmp_path, golden_file, capsys, setting):
    cfg_path, _ = _write_train_config(tmp_path, golden_file, epochs=1)
    # the train signature without its axioms: a validation file with nothing to score
    (tmp_path / "no_axioms.nf").write_text(
        "".join(line + "\n" for line in GOLDEN_NF.splitlines() if line.startswith("#")),
        encoding="utf-8",
    )
    setting = setting.format(tmp=tmp_path)
    cfg_path.write_text(cfg_path.read_text() + f"\n{setting}\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_rejects_unknown_model(tmp_path, golden_file, capsys):
    cfg_path, _ = _write_train_config(tmp_path, golden_file, epochs=1, model="boxel")
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "'boxel'" in err and "box2el" in err
    assert not (tmp_path / "model.ckpt").exists()


def test_eval_rejects_duplicate_candidates(tmp_path, golden_file, capsys):
    cfg_path, _ = _write_train_config(tmp_path, golden_file, epochs=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    test_file = tmp_path / "test.nf"
    test_file.write_text(
        "\n".join(GOLDEN_NF.splitlines()[:6]) + "\nGCI2 {P} has_function {GO2}\n",
        encoding="utf-8",
    )
    candidates = tmp_path / "candidates.txt"
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(
        f"checkpoint={tmp_path / 'model.ckpt'}\ntrain_file={golden_file}\n"
        f"test_file={test_file}\ncandidates_file={candidates}\n",
        encoding="utf-8",
    )
    candidates.write_text("{GO1} {GO2} A B\n", encoding="utf-8")
    assert main(["eval", "--config", str(eval_cfg)]) == 0
    capsys.readouterr()
    candidates.write_text("{GO1} {GO2} A B {GO2}\n", encoding="utf-8")
    assert main(["eval", "--config", str(eval_cfg)]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_train_rejects_validation_file_with_other_signature(tmp_path, capsys):
    train_file = tmp_path / "train.nf"
    train_file.write_text("#concept A\n#concept B\n#concept C\nGCI0 A B\nGCI0 B C\n")
    validation = tmp_path / "validation.nf"
    validation.write_text("GCI0 C A\n")  # interned on its own, C would be id 2 = A
    cfg_path, _ = _write_train_config(tmp_path, train_file, epochs=1,
                                      validation_file=validation)
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "validation_file concepts must match" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()
    validation.write_text("#concept A\n#concept B\n#concept C\nGCI0 C A\n")
    assert main(["train", "--config", str(cfg_path)]) == 0


def test_validation_file_skips_role_inclusions(tmp_path, capsys):
    """A validation theory is scored as the train theory is: its role
    inclusions carry no loss, so an RI0 line leaves the epoch log as it was,
    and a validation file of role inclusions alone has nothing to score."""
    header = "#concept A\n#concept B\n#concept C\n#role r\n#role s\n"
    train_file, validation = tmp_path / "train.nf", tmp_path / "validation.nf"
    train_file.write_text(header + "GCI0 A B\nGCI2 A r C\nRI0 r s\n")
    cfg_path, _ = _write_train_config(tmp_path, train_file, epochs=3,
                                      validation_file=validation)
    logs = []
    for lines in ("GCI0 B C\n", "GCI0 B C\nRI0 r s\n"):
        validation.write_text(header + lines)
        assert main(["train", "--config", str(cfg_path)]) == 0
        logs.append((tmp_path / "train.log.json").read_text())
    assert logs[0] == logs[1]
    (tmp_path / "model.ckpt").unlink()
    validation.write_text(header + "RI0 r s\n")
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "no loss-bearing axioms" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_closure_listing_keeps_no_row(tmp_path, capsys):
    """``elkbc closure`` walks each variant once and stores no pair or
    existential row, so listing a 60-class layered DAG (1,830 pair rows)
    allocates under 2 MiB at its peak; memoizing every pair row peaks at
    about 5 MiB."""
    src = tmp_path / "theory.nf"
    src.write_text(serialize_theory(layered_dag_benchmark(0, n_concepts=60)[0]))
    tracemalloc.start()
    try:
        assert main(["closure", str(src), "--out", str(tmp_path / "closure")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_eval_rejects_test_file_with_other_roles(tmp_path, capsys):
    train_file = tmp_path / "train.nf"
    header = "#concept A\n#concept C\n"
    train_file.write_text(header + "#role r\n#role s\nGCI2 A r C\nGCI2 C s A\n")
    cfg_path, _ = _write_train_config(tmp_path, train_file, epochs=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    test_file = tmp_path / "test.nf"
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(
        f"checkpoint={tmp_path / 'model.ckpt'}\ntrain_file={train_file}\n"
        f"test_file={test_file}\n",
        encoding="utf-8",
    )
    test_file.write_text(header + "#role s\n#role r\nGCI2 A s C\n")  # s would read as r
    assert main(["eval", "--config", str(eval_cfg)]) == 1
    assert "test_file roles must match" in capsys.readouterr().err
    test_file.write_text(header + "#role r\n#role s\nGCI2 A s C\n")
    assert main(["eval", "--config", str(eval_cfg)]) == 0


def test_eval_missing_checkpoint_exits_1(tmp_path, golden_file, capsys):
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(
        f"checkpoint={tmp_path / 'missing.ckpt'}\ntrain_file={golden_file}\n"
        f"test_file={golden_file}\n",
        encoding="utf-8",
    )
    assert main(["eval", "--config", str(eval_cfg)]) == 1


def test_unknown_config_key_rejected(tmp_path, golden_file):
    cfg_path, _ = _write_train_config(tmp_path, golden_file)
    cfg_path.write_text(cfg_path.read_text() + "\nbogus_key=1\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 1


def test_json_config_accepted(tmp_path, golden_file):
    cfg = {
        "model": "elem",
        "dim": 3,
        "epochs": 2,
        "train_file": str(golden_file),
        "checkpoint": str(tmp_path / "m.ckpt"),
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 0


def test_train_config_keys_reach_the_config_fields(tmp_path, golden_file, monkeypatch):
    """A config without sampler keys trains with ``SamplerConfig()`` and
    TrainConfig's default seed; each sampler key a config sets reaches its
    field, and ``--seed`` overrides the configured seed."""
    seen = []
    real_train = cli.train
    monkeypatch.setattr(
        cli, "train", lambda theory, cfg, dc: seen.append(cfg) or real_train(theory, cfg, dc)
    )
    cfg_path = tmp_path / "train.cfg"
    base = f"dim=3\nepochs=1\ntrain_file={golden_file}\ncheckpoint={tmp_path / 'm.ckpt'}\n"
    cfg_path.write_text(base, encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 0
    cfg_path.write_text(base + "seed=4\nnegative_mode=biased\nbias_p=0.5\nretry_limit=7\n")
    assert main(["--seed", "9", "train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert seen[0].sampler == SamplerConfig() and seen[0].seed == TrainConfig().seed
    assert seen[1].sampler == SamplerConfig(mode="biased", bias_p=0.5, retry_limit=7)
    assert [c.seed for c in seen[1:]] == [9, 4]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_config_before_the_command_is_rejected(tmp_path, golden_file, capsys, command):
    cfg_path, _ = _write_train_config(tmp_path, golden_file)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_path), command])
    assert exc.value.code == 2
    assert not (tmp_path / "model.ckpt").exists()


def test_toy_demo_outputs(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert main(["toy-demo", "--model", "elem", "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary) == {"gci2-random", "gci2-filtered", "all-random", "all-filtered"}
    assert summary["all-filtered"] == "7/7"
    assert summary["gci2-random"] != "7/7"
    csv_lines = (out_dir / "all-filtered" / "concepts.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 16  # header + one row per concept
    assertions = json.loads((out_dir / "all-filtered" / "assertions.json").read_text())
    assert all(a["passed"] for a in assertions)


@pytest.mark.parametrize("damage", ["truncated", "trailing", "shape"])
def test_eval_damaged_checkpoint_exits_1(tmp_path, golden_file, capsys, damage):
    cfg_path, _ = _write_train_config(tmp_path, golden_file, epochs=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "model.ckpt"
    blob = ckpt.read_bytes()
    if damage == "truncated":
        blob = blob[:-8]
    elif damage == "trailing":
        blob = blob + b"\0"
    else:
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8 : 8 + hlen])
        header["dim"] += 1
        new = json.dumps(header).encode("utf-8")
        blob = blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen :]
    ckpt.write_bytes(blob)
    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(
        f"checkpoint={ckpt}\ntrain_file={golden_file}\ntest_file={golden_file}\n",
        encoding="utf-8",
    )
    assert main(["eval", "--config", str(eval_cfg)]) == 1
    assert "error:" in capsys.readouterr().err
