"""Saturation classifier: golden hierarchy, oracle agreement, soundness."""

import numpy as np
import pytest

from elkbc.core import BOT_ID, GCI0, TOP_ID, Theory, parse_theory
from elkbc.reasoner import classify
from oracles import axiom_holds, enumerate_models, naive_classify, random_theory

GOLDEN_HIERARCHY = {
    "owl:Nothing": {"owl:Nothing", "{P}", "{Q}", "A", "B", "{GO1}", "{GO2}", "owl:Thing"},
    "{P}": {"{P}", "B", "owl:Thing"},
    "{Q}": {"{Q}", "A", "owl:Thing"},
    "A": {"A", "owl:Thing"},
    "B": {"B", "owl:Thing"},
    "{GO1}": {"{GO1}", "owl:Thing"},
    "{GO2}": {"{GO2}", "owl:Thing"},
    "owl:Thing": {"owl:Thing"},
}


def test_golden_hierarchy(golden):
    theory, index = golden["theory"], golden["index"]
    names = theory.signature.concepts
    computed = {
        names.name_of(a): {names.name_of(b) for b in index.sup[a]}
        for a in range(theory.n_concepts)
    }
    assert computed == GOLDEN_HIERARCHY


def test_protein_below_helper_class(golden):
    theory, index = golden["theory"], golden["index"]
    names = theory.signature.concepts
    assert index.is_subclass(names.id_of("{P}"), names.id_of("B"))
    assert not index.is_subclass(names.id_of("A"), names.id_of("{P}"))


def test_reflexivity_and_top():
    t = parse_theory("GCI0 A B\n")
    index, _, _ = classify(t)
    for a in range(t.n_concepts):
        assert a in index.sup[a]
        assert TOP_ID in index.sup[a]
    assert index.sup[TOP_ID] == {TOP_ID}
    assert index.sup[BOT_ID] == set(range(t.n_concepts))


def test_transitive_closure_through_asserted_chain():
    t = parse_theory("GCI0 A B\nGCI0 B C\nGCI0 C D\n")
    index, _, _ = classify(t)
    a, d = t.signature.concepts.id_of("A"), t.signature.concepts.id_of("D")
    assert d in index.sup[a]


def test_unknown_id_raises(golden):
    with pytest.raises(KeyError):
        golden["index"].is_subclass(0, 999)


def test_role_hierarchy_closure():
    t = parse_theory("RI0 r s\nRI0 s t\n")
    _, hierarchy, _ = classify(t)
    r = t.signature.roles.id_of("r")
    t_id = t.signature.roles.id_of("t")
    assert t_id in hierarchy.rsup[r]


def test_role_links_respect_hierarchy_and_chains():
    t = parse_theory("GCI2 A r B\nRI0 r s\nGCI2 B r E\nRI1 s r u\n")
    _, _, links = classify(t)
    names, roles = t.signature.concepts, t.signature.roles
    a, b, e = names.id_of("A"), names.id_of("B"), names.id_of("E")
    assert (a, b) in links.pairs(roles.id_of("s"))
    assert (a, e) in links.pairs(roles.id_of("u"))
    for r in (-1, t.n_roles):
        with pytest.raises(KeyError):
            links.pairs(r)


def test_agreement_with_naive_fixpoint_oracle():
    rng = np.random.default_rng(42)
    for _ in range(220):
        theory = random_theory(rng)
        index, _, links = classify(theory)
        S, R = naive_classify(theory)
        assert {a: set(s) for a, s in enumerate(index.sup)} == S
        assert {r: links.pairs(r) for r in range(theory.n_roles)} == R


def test_soundness_against_enumerated_models():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        theory = random_theory(rng, max_concepts=4, max_roles=1, max_axioms=8)
        index, _, _ = classify(theory)
        models = enumerate_models(theory, max_domain=3)
        for a in range(theory.n_concepts):
            for b in index.sup[a]:
                ax = GCI0(a, b)
                for concepts, roles, domain in models:
                    assert axiom_holds(ax, concepts, roles, domain), (theory.axioms, ax)
                checked += 1
    assert checked > 0


def test_monotonicity_under_added_axioms():
    rng = np.random.default_rng(3)
    for _ in range(30):
        theory = random_theory(rng, max_concepts=6, max_roles=2, max_axioms=10)
        k = int(rng.integers(0, len(theory.axioms)))
        smaller = Theory(theory.signature, theory.axioms[:k])
        sub_index, _, _ = classify(smaller)
        full_index, _, _ = classify(theory)
        for a in range(theory.n_concepts):
            assert sub_index.sup[a] <= full_index.sup[a]
