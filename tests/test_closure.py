"""Per-variant closure: golden tables, mode agreement, rule properties."""

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
    GCI3Bot,
    RI0,
    TOP_ID,
    parse_theory,
)
from elkbc.reasoner import classify
from oracles import axiom_holds, enumerate_models, naive_closure, random_theory

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
    "owl:Nothing": {"{P}", "{Q}", "A", "B", "{GO1}", "{GO2}", T},
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
    for pair, sups in dc.gci1.items():
        computed[_name_pair(names, pair)] = {names.name_of(e) for e in sups}
    for pair in dc.gci1_bot:
        computed.setdefault(_name_pair(names, pair), set()).add("owl:Nothing")
    golden_keyed = {tuple(sorted(k)): v for k, v in GOLDEN_GCI1.items()}
    assert computed == golden_keyed


def test_golden_gci2_table(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    computed: dict[str, set[str]] = {}
    for (a, r), fillers in dc.gci2.items():
        assert r == 0
        computed[names.name_of(a)] = {names.name_of(b) for b in fillers}
    assert computed == GOLDEN_GCI2


def test_golden_gci3_table(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    computed: dict[str, set[str]] = {}
    for (r, a), sups in dc.gci3.items():
        assert r == 0
        if a == BOT_ID:
            continue  # the table lists satisfiable fillers only
        computed[names.name_of(a)] = {names.name_of(b) for b in sups}
    assert computed == GOLDEN_GCI3
    assert not dc.gci3_bot


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
        ref = naive_closure(theory)
        assert {(a, b) for a in range(theory.n_concepts) for b in index.sup[a]} == ref["GCI0"]
        assert dc.gci1 == ref["GCI1"]
        assert dc.gci1_bot == ref["GCI1_BOT"]
        assert dc.gci2 == ref["GCI2"]
        assert dc.gci3 == ref["GCI3"]
        assert dc.gci3_bot == ref["GCI3_BOT"]


def test_two_axiom_corruption_pool():
    theory = parse_theory("GCI1 A B E\nGCI0 F B\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    names = theory.signature.concepts
    a, b, e, f = (names.id_of(x) for x in "ABEF")
    sups = dc.gci1[(a, b) if a <= b else (b, a)]
    assert {a, b, e} <= sups
    assert f not in sups


def test_unconditional_rules_on_empty_theory():
    theory = parse_theory("#concept X\n#role r\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    x = theory.signature.concepts.id_of("X")
    assert dc.entails(GCI2(BOT_ID, 0, x))
    assert dc.entails(GCI3(0, x, TOP_ID))
    assert x in dc.gci2[(BOT_ID, 0)]
    assert TOP_ID in dc.gci3[(0, x)]


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


def test_role_rows_cover_reasoner_links():
    # the reasoner's link relation is an independent witness: A [= Er.B
    # for each link (A, B) in R(r), so every superclass of B is an entailed
    # r-filler of a satisfiable A
    rng = np.random.default_rng(5)
    rows = 0
    for _ in range(2000):
        theory = random_theory(rng)
        index, hierarchy, links = classify(theory)
        dc = compute_closure(theory, index, hierarchy, mode="oracle")
        for r in range(theory.n_roles):
            fillers: dict[int, set[int]] = {}
            for a, b in links.pairs(r):
                fillers.setdefault(a, set()).update(index.sup[b])
            for a in range(theory.n_concepts):
                if BOT_ID not in index.sup[a]:
                    assert fillers.get(a, set()) <= dc._role_row(a, r), (theory.axioms, a, r)
                    rows += 1
    assert rows > 5000


def test_closure_soundness_on_tiny_theories():
    rng = np.random.default_rng(31)
    for _ in range(12):
        theory = random_theory(rng, max_concepts=4, max_roles=1, max_axioms=6)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        models = enumerate_models(theory, max_domain=3)
        members = []
        for a in range(theory.n_concepts):
            members += [GCI0(a, b) for b in index.sup[a]]
        members += [GCI1(p[0], p[1], e) for p, es in dc.gci1.items() for e in es]
        members += [GCI1Bot(*p) for p in dc.gci1_bot]
        members += [GCI2(a, r, b) for (a, r), bs in dc.gci2.items() for b in bs]
        members += [GCI3(r, a, b) for (r, a), bs in dc.gci3.items() for b in bs]
        members += [GCI3Bot(r, a) for (r, a) in dc.gci3_bot]
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
        counts = dc.counts()
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
