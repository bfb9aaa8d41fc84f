"""Saturation classifier: golden hierarchy, oracle agreement, soundness."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.core import (
    BOT_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    RI0,
    RI1,
    TOP_ID,
    Signature,
    Theory,
    parse_theory,
)
from elkbc.datasets import layered_dag_benchmark
from elkbc.reasoner import _told_rows, classify
from oracles import axiom_holds, enumerate_models, naive_classify, random_theory


def naive_successors(R) -> dict[int, dict[int, set[int]]]:
    """The naive R as successor rows: a -> role -> every b with (a, b) in R(role)."""
    rows: dict[int, dict[int, set[int]]] = defaultdict(dict)
    for r, pairs in R.items():
        for a, b in pairs:
            rows[a].setdefault(r, set()).add(b)
    return rows


def assert_agrees_with_naive(theory, index) -> None:
    """Every ``sup`` row and every ``successors`` row equals the naive fixpoint's."""
    S, R = naive_classify(theory)
    successors = naive_successors(R)
    for a in range(theory.n_concepts):
        assert index.sup[a] == S[a], a
        assert index.successors[a] == successors.get(a, {}), a

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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    ),
    st.sampled_from([(), (TOP_ID,)]),
)
def test_told_rows_equal_naive_reflexive_transitive_closure(graph, default):
    """Cycles, self-loops and repeated edges; a node with no told edge takes
    ``default`` (Top for concepts, none for roles)."""
    n, edges = graph
    told = defaultdict(list)
    for a, b in edges:
        told[a].append(b)
    rows = _told_rows(n, dict(told), default)
    for x in range(n):
        seen, todo = {x}, [x]
        while todo:
            for w in told.get(todo.pop(), default):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        assert rows[x] == seen, (edges, x)


def test_role_links_respect_hierarchy_and_chains():
    t = parse_theory("GCI2 A r B\nRI0 r s\nGCI2 B r E\nRI1 s r u\n")
    index, _, links = classify(t)
    names, roles = t.signature.concepts, t.signature.roles
    a, b, e = names.id_of("A"), names.id_of("B"), names.id_of("E")
    assert b in index.successors[a][roles.id_of("s")]
    assert e in index.successors[a][roles.id_of("u")]
    for r in (-1, t.n_roles):
        with pytest.raises(KeyError):
            links.pairs(r)


def test_agreement_with_naive_fixpoint_oracle():
    rng = np.random.default_rng(42)
    for _ in range(220):
        theory = random_theory(rng)
        index, _, _ = classify(theory)
        S, R = naive_classify(theory)
        assert {a: set(s) for a, s in enumerate(index.sup)} == S
        assert {a: row for a, row in enumerate(index.successors) if row} == naive_successors(R)


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


@st.composite
def cyclic_theories(draw) -> Theory:
    """Random theories with planted GCI0 cycles: some run through Top or Bot,
    some hold a GCI0_BOT member, and GCI1/GCI2/GCI3 axioms feed back into
    them, beside random role inclusions and chains."""
    n_c = draw(st.integers(4, 9))
    n_r = draw(st.integers(1, 3))
    sig = Signature()
    for i in range(n_c - 2):
        sig.concepts.intern(f"c{i}")
    for i in range(n_r):
        sig.roles.intern(f"r{i}")
    concept = st.integers(0, n_c - 1)
    named = st.integers(2, n_c - 1)
    role = st.integers(0, n_r - 1)

    axioms = []
    for through in draw(st.lists(st.sampled_from([TOP_ID, BOT_ID, None]), min_size=1, max_size=3)):
        members = draw(st.lists(named, min_size=1, max_size=4, unique=True))
        if through is not None:
            members.insert(draw(st.integers(0, len(members))), through)
        for x, y in zip(members, members[1:] + members[:1]):
            axioms.append(GCI0Bot(x) if y == BOT_ID and draw(st.booleans()) else GCI0(x, y))
        member = st.sampled_from(members)
        if draw(st.booleans()):
            axioms.append(GCI0Bot(draw(st.sampled_from([m for m in members if m != BOT_ID]))))
        for _ in range(draw(st.integers(0, 2))):
            axioms.append(GCI1(draw(member), draw(concept), draw(member)))
        for _ in range(draw(st.integers(0, 2))):
            axioms.append(GCI2(draw(member), draw(role), draw(concept)))
        for _ in range(draw(st.integers(0, 2))):
            axioms.append(GCI3(draw(role), draw(member), draw(member)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["GCI0", "GCI1", "GCI2", "GCI3", "GCI1_BOT", "GCI3_BOT"]))
        if kind == "GCI0":
            axioms.append(GCI0(draw(concept), draw(concept)))
        elif kind == "GCI1":
            axioms.append(GCI1(draw(concept), draw(concept), draw(concept)))
        elif kind == "GCI2":
            axioms.append(GCI2(draw(concept), draw(role), draw(concept)))
        elif kind == "GCI3":
            axioms.append(GCI3(draw(role), draw(concept), draw(concept)))
        elif kind == "GCI1_BOT":
            axioms.append(GCI1Bot(draw(named), draw(named)))
        else:
            axioms.append(GCI3Bot(draw(role), draw(named)))
    for _ in range(draw(st.integers(0, 2))):
        axioms.append(RI0(draw(role), draw(role)))
    for _ in range(draw(st.integers(0, 2))):
        axioms.append(RI1(draw(role), draw(role), draw(role)))
    return Theory(sig, draw(st.permutations(axioms)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cyclic_theories())
def test_cyclic_theories_agree_with_naive_fixpoint(theory):
    index, _, _ = classify(theory)
    assert_agrees_with_naive(theory, index)


@st.composite
def deep_hierarchies(draw) -> Theory:
    """Deep told hierarchies: GCI0 chains with cross edges between them, GCI2
    and GCI3 on chain-free roles (r0, r1 [= r0) and on chain roles (r2, r3,
    and r0 too when it is put below r2), and GCI0_BOT / GCI1_BOT axioms that
    make some members unsatisfiable."""
    n_chains = draw(st.integers(1, 3))
    depth = draw(st.integers(2, 6))
    sig = Signature()
    chains = [[sig.concepts.intern(f"c{k}_{i}") for i in range(depth)] for k in range(n_chains)]
    for i in range(4):
        sig.roles.intern(f"r{i}")
    members = [x for chain in chains for x in chain]
    member = st.sampled_from(members)
    concept = st.sampled_from(members + [TOP_ID, BOT_ID])
    role = st.integers(0, 3)

    axioms = [GCI0(x, y) for chain in chains for x, y in zip(chain, chain[1:])]
    axioms += [RI0(1, 0), RI1(2, 3, 2)]
    if draw(st.booleans()):
        axioms.append(RI0(0, 2))
    for _ in range(draw(st.integers(0, 2 * n_chains))):
        axioms.append(GCI0(draw(member), draw(member)))
    for _ in range(draw(st.integers(1, 2 * depth))):
        axioms.append(GCI2(draw(concept), draw(role), draw(member)))
    for _ in range(draw(st.integers(1, 2 * depth))):
        axioms.append(GCI3(draw(role), draw(concept), draw(concept)))
    for _ in range(draw(st.integers(0, 2))):
        axioms.append(GCI1(draw(member), draw(member), draw(concept)))
    for _ in range(draw(st.integers(0, 1))):
        axioms.append(GCI0Bot(draw(member)))
    for _ in range(draw(st.integers(0, 1))):
        axioms.append(GCI1Bot(draw(member), draw(member)))
    return Theory(sig, draw(st.permutations(axioms)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(deep_hierarchies())
def test_deep_hierarchies_agree_with_naive_fixpoint(theory):
    index, _, _ = classify(theory)
    assert_agrees_with_naive(theory, index)


def test_chain_free_link_rows_are_built_on_first_read():
    """Layered DAG 0 has no role chains: classify stores no per-concept link
    row, and a successor row is built from the own links when it is read."""
    theory, _, _ = layered_dag_benchmark(0)
    assert not theory.axioms_of(RI1)
    index, _, links = classify(theory)
    rows = index.successors
    assert links.successors is rows
    assert rows._links == {}
    assert len(rows) == theory.n_concepts
    _, R = naive_classify(theory)
    successors = naive_successors(R)
    a = next(a for a in range(theory.n_concepts) if a in successors and a != BOT_ID)
    assert rows[a] == successors[a]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layered_dag_agrees_with_naive_fixpoint(seed):
    theory, _, _ = layered_dag_benchmark(seed)
    index, _, _ = classify(theory)
    assert_agrees_with_naive(theory, index)


def test_unsatisfiable_cycle_member_records_bot_not_everything():
    # A and B are one cycle, unsatisfiable through CR2; G through CR5
    t = parse_theory(
        "GCI0 A B\nGCI0 B A\nGCI0 A X\nGCI0 B Y\nGCI1_BOT X Y\nGCI2 A r D\nGCI2 G r A\nGCI0 E F\n"
    )
    index, _, _ = classify(t)
    a, b, d, e, g, x, y = (t.signature.concepts.id_of(n) for n in "ABDEGXY")
    assert index.sup[a] == index.sup[b] == {a, b, x, y, BOT_ID, TOP_ID}
    assert index.sup[g] == {g, BOT_ID, TOP_ID}
    assert index.is_subclass(a, e) and e not in index.sup[a]
    assert index.successors[a] == {t.signature.roles.id_of("r"): {d}}
    assert_agrees_with_naive(t, index)


def test_cycle_members_share_one_row():
    t = parse_theory("GCI0 A B\nGCI0 B C\nGCI0 C A\nGCI0 C D\nGCI0 E A\n")
    index, _, _ = classify(t)
    a, b, c, d, e = (t.signature.concepts.id_of(n) for n in "ABCDE")
    assert index.sup[a] == {a, b, c, d, TOP_ID}
    # a row no rule beyond CR0/CR1 grows is the component's one frozenset
    assert index.sup[a] is index.sup[b] is index.sup[c]
    assert index.sup[e] == index.sup[a] | {e}


def test_bot_row_is_every_concept_and_its_links_match_naive():
    t = parse_theory(
        "GCI2 A r B\nGCI2 owl:Nothing s C\nRI0 r s\nRI1 s s u\nGCI2 C s A\nGCI3 r B D\n"
    )
    index, _, _ = classify(t)
    assert index.sup[BOT_ID] == set(range(t.n_concepts))
    assert index.successors[BOT_ID]
    _, R = naive_classify(t)
    assert index.successors[BOT_ID] == naive_successors(R)[BOT_ID]
    # an unsatisfiable concept takes the CR4 conclusions of links asserted at
    # Bot, but not those of Bot's per-concept (chain role) links
    t = parse_theory("GCI1_BOT owl:Thing D\nGCI2 owl:Nothing r F\nGCI3 r F C\n")
    index, _, _ = classify(t)
    c, d = (t.signature.concepts.id_of(n) for n in "CD")
    assert c in index.sup[d]
    assert_agrees_with_naive(t, index)
    t = parse_theory("GCI0_BOT owl:Thing\nRI1 p q s\nGCI2 A q A\nGCI3 q owl:Thing C\n")
    index, _, _ = classify(t)
    assert index.sup[TOP_ID] == {TOP_ID, BOT_ID}
    assert_agrees_with_naive(t, index)


def test_asserted_top_subclass_is_in_every_row():
    t = parse_theory("GCI0 owl:Thing A\nGCI0 B C\nGCI0_BOT D\n")
    index, _, _ = classify(t)
    a = t.signature.concepts.id_of("A")
    for x in range(t.n_concepts):
        assert a in index.sup[x], x
    assert index.sup[a] == index.sup[TOP_ID] == {a, TOP_ID}
    assert_agrees_with_naive(t, index)
