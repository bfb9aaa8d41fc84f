"""Per-variant closure: golden tables, mode agreement, rule properties."""

import collections
import dataclasses
import itertools

import numpy as np
import pytest

from elkbc.closure import ClosureCapError, compute_closure
from elkbc.core import (
    BOT_ID,
    GCI0,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    RI0,
    RI1,
    TOP_ID,
    parse_theory,
)
from elkbc.datasets import layered_dag_benchmark
from elkbc.losses import LOSS_VARIANTS
from elkbc.reasoner import classify
from oracles import axiom_holds, closure_axioms, enumerate_models, naive_closure, random_theory

ALL = {"owl:Nothing", "{P}", "{Q}", "A", "B", "{GO1}", "{GO2}", "owl:Thing"}
T = "owl:Thing"

#: unordered conjunct pair -> every G with E n F [= G entailed
GOLDEN_GCI1 = {
    ("owl:Nothing", "owl:Nothing"): ALL,
    ("owl:Nothing", "{P}"): ALL,
    ("owl:Nothing", "{Q}"): ALL,
    ("owl:Nothing", "A"): ALL,
    ("owl:Nothing", "B"): ALL,
    ("owl:Nothing", "{GO1}"): ALL,
    ("owl:Nothing", "{GO2}"): ALL,
    ("owl:Nothing", T): ALL,
    ("{P}", "{P}"): {"{P}", "B", T},
    ("{P}", "{Q}"): ALL,
    ("{P}", "A"): ALL,
    ("{P}", "B"): {"{P}", "B", T},
    ("{P}", "{GO1}"): {"{P}", "{GO1}", "B", T},
    ("{P}", "{GO2}"): {"{P}", "{GO2}", "B", T},
    ("{P}", T): {"{P}", "B", T},
    ("{Q}", "{Q}"): {"{Q}", "A", T},
    ("{Q}", "A"): {"{Q}", "A", T},
    ("{Q}", "B"): ALL,
    ("{Q}", "{GO1}"): {"{Q}", "{GO1}", "A", T},
    ("{Q}", "{GO2}"): {"{Q}", "{GO2}", "A", T},
    ("{Q}", T): {"{Q}", "A", T},
    ("A", "A"): {"A", T},
    ("A", "B"): ALL,
    ("A", "{GO1}"): {"A", "{GO1}", T},
    ("A", "{GO2}"): {"A", "{GO2}", T},
    ("A", T): {"A", T},
    ("B", "B"): {"B", T},
    ("B", "{GO1}"): {"B", "{GO1}", T},
    ("B", "{GO2}"): {"B", "{GO2}", T},
    ("B", T): {"B", T},
    ("{GO1}", "{GO1}"): {"{GO1}", T},
    ("{GO1}", "{GO2}"): ALL,
    ("{GO1}", T): {"{GO1}", T},
    ("{GO2}", "{GO2}"): {"{GO2}", T},
    ("{GO2}", T): {"{GO2}", T},
    (T, T): {T},
}

GOLDEN_GCI2 = {
    "owl:Nothing": ALL,
    "{P}": {"{GO1}", T},
    "{Q}": {"{GO2}", T},
}

GOLDEN_GCI3 = {
    "{P}": {T},
    "{Q}": {T},
    "A": {T},
    "B": {T},
    "{GO1}": {"B", T},
    "{GO2}": {"A", T},
    T: {T},
}


def _name_pair(names, pair):
    return tuple(sorted((names.name_of(pair[0]), names.name_of(pair[1]))))


def test_golden_gci1_table(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    computed: dict[tuple[str, str], set[str]] = {}
    for ax in dc.iter_variant("GCI1"):
        sups = computed.setdefault(_name_pair(names, (ax.left, ax.right)), set())
        sups.add(names.name_of(ax.sup))
    for ax in dc.iter_variant("GCI1_BOT"):
        computed.setdefault(_name_pair(names, (ax.left, ax.right)), set()).add("owl:Nothing")
    golden_keyed = {tuple(sorted(k)): v for k, v in GOLDEN_GCI1.items()}
    assert computed == golden_keyed


def test_golden_gci2_table(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    computed: dict[str, set[str]] = {}
    for ax in dc.iter_variant("GCI2"):
        assert ax.role == 0
        computed.setdefault(names.name_of(ax.sub), set()).add(names.name_of(ax.filler))
    assert computed == GOLDEN_GCI2


def test_golden_gci3_table(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    computed: dict[str, set[str]] = {}
    for ax in dc.iter_variant("GCI3"):
        assert ax.role == 0
        if ax.filler == BOT_ID:
            continue  # the table lists satisfiable fillers only
        computed.setdefault(names.name_of(ax.filler), set()).add(names.name_of(ax.sup))
    assert computed == GOLDEN_GCI3
    assert not list(dc.iter_variant("GCI3_BOT"))


def test_gci2_membership_examples(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1, go2 = names.id_of("{P}"), names.id_of("{GO1}"), names.id_of("{GO2}")
    assert dc.entails(GCI2(p, 0, go1))
    assert dc.entails(GCI2(p, 0, TOP_ID))
    assert not dc.entails(GCI2(p, 0, go2))
    b = names.id_of("B")
    assert dc.entails(GCI1(p, go2, b))
    assert dc.entails(GCI0(3, 3))  # reflexive


def test_mode_agreement_exhaustive(golden):
    theory = golden["theory"]
    mat, ora = golden["materialized"], golden["oracle"]
    n = theory.n_concepts
    for a, b in itertools.product(range(n), repeat=2):
        assert mat.entails(GCI0(a, b)) == ora.entails(GCI0(a, b))
        assert mat.entails(GCI1Bot(a, b)) == ora.entails(GCI1Bot(a, b))
        assert mat.entails(GCI2(a, 0, b)) == ora.entails(GCI2(a, 0, b))
        assert mat.entails(GCI3(0, a, b)) == ora.entails(GCI3(0, a, b))
        for e in range(n):
            assert mat.entails(GCI1(a, b, e)) == ora.entails(GCI1(a, b, e))


def test_mode_agreement_random_theories():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theory = random_theory(rng, max_concepts=6, max_roles=2, max_axioms=10)
        index, hierarchy, _ = classify(theory)
        mat = compute_closure(theory, index, hierarchy)
        ora = compute_closure(theory, index, hierarchy, mode="oracle")
        n, m = theory.n_concepts, theory.n_roles
        for a, b in itertools.product(range(n), repeat=2):
            assert mat.entails(GCI0(a, b)) == ora.entails(GCI0(a, b))
            assert mat.entails(GCI1Bot(a, b)) == ora.entails(GCI1Bot(a, b))
            for r in range(m):
                assert mat.entails(GCI2(a, r, b)) == ora.entails(GCI2(a, r, b))
                assert mat.entails(GCI3(r, a, b)) == ora.entails(GCI3(r, a, b))
            for e in range(n):
                assert mat.entails(GCI1(a, b, e)) == ora.entails(GCI1(a, b, e))


def test_matches_naive_closure_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        theory = random_theory(rng)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        for tag, axioms in closure_axioms(naive_closure(theory)).items():
            assert set(dc.iter_variant(tag)) == axioms, (tag, theory.axioms)


def test_enumeration_copies_no_row():
    """Listing the closure keeps no row: after every variant, the pair and
    existential memos are as the queries left them, the closure holds its
    fields, its four memos and its premise indexes, and no per-variant copy
    of the rows; only the subject rows, which queries ask again, stay."""
    theory = layered_dag_benchmark(0)[0]
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    for a in range(2, 12):  # queries memoize a few pair and existential rows
        dc.entailed_fillers(GCI1(a, a + 1, a))
        dc.entailed_fillers(GCI3(a % 2, a, a))
    pairs, existentials = dict(dc._pairs), dict(dc._existentials)
    assert pairs and existentials
    for tag in LOSS_VARIANTS:
        collections.deque(dc.iter_variant(tag), maxlen=0)
    assert dc._pairs == pairs and dc._existentials == existentials
    assert len(dc._subjects) == theory.n_concepts
    fields = {f.name for f in dataclasses.fields(dc)}
    memos = {"_pairs", "_subjects", "_existentials", "_slot_sets"}
    premises = {"_gci1_by_conjunct", "_gci3_by_filler", "_everything"}
    assert set(vars(dc)) <= fields | memos | premises


def test_enumeration_refuses_oracle_closures_and_unknown_variants(golden):
    with pytest.raises(ValueError, match="materialized"):
        next(golden["oracle"].iter_variant("GCI0"))
    for tag in ("RI0", "GCI2_BOT", "gci1"):
        with pytest.raises(ValueError, match="unknown variant"):
            next(golden["materialized"].iter_variant(tag))


def test_two_axiom_corruption_pool():
    theory = parse_theory("GCI1 A B E\nGCI0 F B\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    names = theory.signature.concepts
    a, b, e, f = (names.id_of(x) for x in "ABEF")
    pair = (a, b) if a <= b else (b, a)
    sups = {ax.sup for ax in dc.iter_variant("GCI1") if (ax.left, ax.right) == pair}
    assert {a, b, e} <= sups
    assert f not in sups


@pytest.mark.parametrize("mode", ["materialized", "oracle"])
def test_conjunction_rule_reaches_a_fixpoint(mode):
    """A n B [= Z and Z n A [= W entail A n B [= W: a derived superclass of a
    conjunction is a conjunct of a further GCI1, so a filtered negative
    A n B [= W would be provably true."""
    theory = parse_theory("GCI1 A B Z\nGCI1 Z A W\n#concept V\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode=mode)
    a, b, z, w, v = (theory.signature.concepts.id_of(x) for x in "ABZWV")
    assert dc.entails(GCI1(a, b, z))
    assert dc.entails(GCI1(a, b, w)) and dc.entails(GCI1(b, a, w))
    assert not dc.entails(GCI1(a, b, v))
    assert {z, w} <= dc.entailed_fillers(GCI1(a, b, v))
    assert w in naive_closure(theory)["GCI1"][(min(a, b), max(a, b))]


def test_unconditional_rules_on_empty_theory():
    theory = parse_theory("#concept X\n#role r\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    x = theory.signature.concepts.id_of("X")
    assert dc.entails(GCI2(BOT_ID, 0, x))
    assert dc.entails(GCI3(0, x, TOP_ID))
    assert GCI2(BOT_ID, 0, x) in set(dc.iter_variant("GCI2"))
    assert GCI3(0, x, TOP_ID) in set(dc.iter_variant("GCI3"))


@pytest.mark.parametrize("mode", ["materialized", "oracle"])
def test_unsatisfiable_subject_reaches_every_filler(mode):
    # A [= Bot [= Er.Bot: an unsatisfiable subject's row is every concept
    theory = parse_theory("GCI0_BOT A\n#role r\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode=mode)
    a = theory.signature.concepts.id_of("A")
    assert dc.entails(GCI2(a, 0, BOT_ID))
    assert dc.entailed_fillers(GCI2(a, 0, TOP_ID)) == set(range(theory.n_concepts))


def test_chain_rule_iterates_to_fixpoint():
    # a [= Er.b, b [= Er.e, e [= Er.f with r o r [= r: compositions cascade
    theory = parse_theory("GCI2 a r b\nGCI2 b r e\nGCI2 e r f\nRI1 r r r\n")
    index, hierarchy, _ = classify(theory)
    names = theory.signature.concepts
    a, f = names.id_of("a"), names.id_of("f")
    for mode in ("materialized", "oracle"):
        dc = compute_closure(theory, index, hierarchy, mode=mode)
        assert dc.entails(GCI2(a, 0, f)), mode  # needs two chained applications


def test_chain_respects_role_identities():
    theory = parse_theory("GCI2 a r b\nGCI2 b s e\nRI1 r s t\n")
    index, hierarchy, _ = classify(theory)
    names, roles = theory.signature.concepts, theory.signature.roles
    a, e = names.id_of("a"), names.id_of("e")
    t_role = roles.id_of("t")
    dc = compute_closure(theory, index, hierarchy)
    assert dc.entails(GCI2(a, t_role, e))
    assert not dc.entails(GCI2(a, roles.id_of("r"), e))


def test_chain_result_reaches_super_roles():
    # r o s [= t and t [= u: the composed link A [= Et.E holds under u too
    theory = parse_theory("GCI2 A r B\nGCI2 B s E\nRI1 r s t\nRI0 t u\n")
    index, hierarchy, _ = classify(theory)
    names, roles = theory.signature.concepts, theory.signature.roles
    a, e = names.id_of("A"), names.id_of("E")
    for mode in ("materialized", "oracle"):
        dc = compute_closure(theory, index, hierarchy, mode=mode)
        assert dc.entails(GCI2(a, roles.id_of("t"), e)), mode
        assert dc.entails(GCI2(a, roles.id_of("u"), e)), mode


def test_role_rows_equal_naive_closure():
    # the rows are read from the reasoner's links; the naive closure derives
    # them independently, with its own composition fixpoint for chains
    rng = np.random.default_rng(5)
    rows = chained = unsat = 0
    for _ in range(1000):
        theory = random_theory(rng)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy, mode="oracle")
        ref = naive_closure(theory)["GCI2"]
        for a in range(theory.n_concepts):
            for r in range(theory.n_roles):
                assert dc._role_row(a, r) == ref.get((a, r), set()), (theory.axioms, a, r)
                rows += 1
            unsat += a != BOT_ID and BOT_ID in index.sup[a]
        chained += bool(theory.axioms_of(RI1))
    assert rows > 5000 and chained > 200 and unsat > 200


def test_closure_soundness_on_tiny_theories():
    rng = np.random.default_rng(31)
    for _ in range(12):
        theory = random_theory(rng, max_concepts=4, max_roles=1, max_axioms=6)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        models = enumerate_models(theory, max_domain=3)
        tags = ("GCI0", "GCI1", "GCI1_BOT", "GCI2", "GCI3", "GCI3_BOT")
        members = [ax for tag in tags for ax in dc.iter_variant(tag)]
        for ax in members:
            for concepts, roles, domain in models:
                assert axiom_holds(ax, concepts, roles, domain), (theory.axioms, ax)


def test_superset_of_asserted_and_bounds():
    rng = np.random.default_rng(17)
    for _ in range(30):
        theory = random_theory(rng)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        for ax in theory.axioms:
            if isinstance(ax, (RI0,)) or type(ax).__name__ == "RI1":
                continue
            assert dc.entails(ax), (theory.axioms, ax)
        n_c, n_r = theory.n_concepts, theory.n_roles
        counts = {tag: len(list(dc.iter_variant(tag))) for tag in LOSS_VARIANTS}
        assert counts["GCI0"] <= n_c**2
        assert counts["GCI1"] <= n_c**3
        assert counts["GCI2"] <= n_c**2 * n_r
        assert counts["GCI3"] <= n_c**2 * n_r
        assert counts["GCI1_BOT"] <= n_c**2
        assert counts["GCI3_BOT"] <= n_c * n_r


def test_materialization_cap():
    theory = parse_theory("GCI0 A B\n")
    index, hierarchy, _ = classify(theory)
    with pytest.raises(ClosureCapError):
        compute_closure(theory, index, hierarchy, materialize_cap=8)
    compute_closure(theory, index, hierarchy, mode="oracle", materialize_cap=8)


def test_entails_rejects_role_axioms(golden):
    with pytest.raises(ValueError):
        golden["materialized"].entails(RI0(0, 0))


def test_entailed_fillers_enumeration(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1 = names.id_of("{P}"), names.id_of("{GO1}")
    fillers = dc.entailed_fillers(GCI2(p, 0, go1))
    assert fillers == frozenset({go1, TOP_ID})
    oracle_fillers = golden["oracle"].entailed_fillers(GCI2(p, 0, go1))
    assert oracle_fillers == fillers
