"""Theory data model and `.nf` format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.core import (
    AXIOM_TAGS,
    BOT,
    BOT_ID,
    SLOT_NAMES,
    AxiomTable,
    GCI1Bot,
    GCI2,
    ParseError,
    TOP,
    TOP_ID,
    Theory,
    axiom_slots,
    axiom_tag,
    parse_axiom,
    parse_theory,
    serialize_theory,
    signature_stats,
)
from elkbc.toy import golden_theory
from oracles import random_theory


def test_reserved_concepts():
    t = parse_theory("GCI0 A B\n")
    assert t.signature.concepts.id_of(TOP) == TOP_ID == 0
    assert t.signature.concepts.id_of(BOT) == BOT_ID == 1


def test_interning_is_bijective():
    t = parse_theory("GCI2 P hf GO1\nGCI0 P GO1\n")
    names = t.signature.concepts
    for ident in range(len(names)):
        assert names.id_of(names.name_of(ident)) == ident
    # dense ids
    assert sorted(names.id_of(n) for n in names.names()) == list(range(len(names)))


def test_parse_single_gci2():
    t = parse_theory("GCI2 P hf GO1\n")
    (ax,) = t.axioms
    assert isinstance(ax, GCI2)
    assert t.signature.concepts.name_of(ax.sub) == "P"
    assert t.signature.roles.name_of(ax.role) == "hf"
    assert t.signature.concepts.name_of(ax.filler) == "GO1"


def test_round_trip_identity():
    text = "\n".join(
        [
            "#concept orphan",
            "#individual p1",
            "GCI0 A B",
            "GCI1 A B E",
            "GCI2 A r B",
            "GCI3 r A B",
            "GCI0_BOT A",
            "GCI1_BOT A B",
            "GCI3_BOT r A",
            "RI0 r s",
            "RI1 r s t",
        ]
    )
    t = parse_theory(text)
    assert parse_theory(serialize_theory(t)) == t
    assert list(t.table) == list(t.axioms)
    # serialize . parse . serialize is a fixpoint
    assert serialize_theory(parse_theory(serialize_theory(t))) == serialize_theory(t)


def test_serialize_empty_theory_has_signature_only():
    t = parse_theory("#concept X\n#role r\n")
    out = serialize_theory(t)
    assert out == "#concept X\n#role r\n"
    assert parse_theory(out) == t


def test_arity_mismatch_reports_line():
    with pytest.raises(ParseError) as err:
        parse_theory("GCI1 A B\n")
    assert "line 1" in str(err.value)


def test_unknown_tag_rejected():
    with pytest.raises(ParseError):
        parse_theory("GCI9 A B\n")


def test_bot_in_bot_variant_rejected():
    with pytest.raises(ParseError):
        parse_theory(f"GCI1_BOT A {BOT}\n")


def test_duplicates_deduplicated_in_order():
    t = parse_theory("GCI0 A B\nGCI0 C D\nGCI0 A B\n")
    assert len(t.axioms) == 2
    names = t.signature.concepts
    assert names.name_of(t.axioms[0].sub) == "A"
    assert names.name_of(t.axioms[1].sub) == "C"


def test_comments_and_blank_lines_ignored():
    t = parse_theory("# a comment\n\nGCI0 A B\n# another\n")
    assert len(t.axioms) == 1


def test_stats_on_golden_theory():
    stats = signature_stats(golden_theory())
    assert stats["GCI1_BOT"] == 2
    assert stats["GCI3"] == 2
    assert stats["GCI2"] == 2
    assert stats["GCI0"] == 0
    assert stats["concepts"] == 8  # includes Top and Bot
    assert stats["roles"] == 1


def test_stats_empty_theory():
    stats = signature_stats(parse_theory(""))
    assert stats["concepts"] == 2
    assert stats["roles"] == 0
    assert all(stats[tag] == 0 for tag in ("GCI0", "GCI1", "GCI2", "GCI3"))


def test_axiom_ids_validated():
    t = parse_theory("GCI0 A B\n")
    with pytest.raises(ValueError):
        type(t)(t.signature, [GCI1Bot(0, 99)])


#: any normalized axiom over ids 0..6, every variant
AXIOMS = st.one_of(*(
    st.tuples(*(st.integers(0, 6) for _ in SLOT_NAMES[tag])).map(lambda ids, cls=cls: cls(*ids))
    for tag, cls in AXIOM_TAGS.items()
))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(axioms=st.lists(AXIOMS, max_size=12), picks=st.lists(st.integers(0, 11), max_size=8))
def test_table_round_trips_mixed_lists(axioms, picks):
    """The id table of a mixed-variant list is a lossless view of it: length,
    indexing, iteration, row selection and per-variant grouping."""
    table = AxiomTable.from_axioms(axioms)
    assert len(table) == len(axioms)
    assert list(table) == axioms
    assert [table[i] for i in range(len(axioms))] == axioms
    for i, ax in enumerate(axioms):
        assert tuple(table.cols[: len(SLOT_NAMES[axiom_tag(ax)]), i].tolist()) == axiom_slots(ax)
        assert (table.cols[len(SLOT_NAMES[axiom_tag(ax)]) :, i] == -1).all()
    picks = [i for i in picks if i < len(axioms)]
    assert list(table[np.array(picks, dtype=int)]) == [axioms[i] for i in picks]
    assert list(table[1::2]) == axioms[1::2]
    assert AxiomTable.from_axioms(table[::-1]) == AxiomTable.from_axioms(axioms[::-1])
    by_variant: dict = {}
    for ax in axioms:
        by_variant.setdefault(axiom_tag(ax), []).append(ax)
    assert [(tag, list(rows)) for tag, rows in table.variants()] == list(by_variant.items())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rnd=st.randoms(use_true_random=False))
def test_reader_gives_serialized_theory_back(seed, rnd):
    """Blank lines, comments, ``#individual`` directives and extra
    whitespace mixed into ``serialize_theory`` text leave the theory as it was,
    with the directives' individuals added in order."""
    theory = random_theory(np.random.default_rng(seed))
    lines, individuals = [], []
    for line in serialize_theory(theory).splitlines():
        lines.append(rnd.choice(["", " ", "\t"]) + line.replace(" ", rnd.choice([" ", "  ", "\t"])))
        extra = rnd.choice(["", "   ", "# GCI9 x", "#", "#concepts x y", None, None])
        if extra is None:
            individuals.append(f"i{rnd.randrange(4)}")
            extra = f"#individual {individuals[-1]} "
        lines.append(extra)
    sig = theory.signature.copy()
    for name in individuals:
        sig.individuals.intern(name)
    assert parse_theory("\n".join(lines)) == Theory(sig, theory.axioms)


@pytest.mark.parametrize(
    "text,message",
    [
        ("GCI0 A B\nGCI9 A B", "line 2: unknown axiom tag 'GCI9'"),
        ("\n  GCI1 A  B ", "line 2: GCI1 expects 3 names, got 2 ('GCI1 A  B')"),
        ("RI0 r s t", "line 1: RI0 expects 2 names, got 3 ('RI0 r s t')"),
        (f"#role r\nGCI3_BOT r {BOT}", f"line 2: GCI3_BOT must not name {BOT} explicitly"),
        (f"GCI1_BOT A {BOT}", f"line 1: GCI1_BOT must not name {BOT} explicitly"),
        (f"GCI0_BOT {BOT}", f"line 1: GCI0_BOT must not name {BOT} explicitly"),
        ("# c\n#individual a b", "line 2: directive #individual expects exactly one name"),
        ("#concept", "line 1: directive #concept expects exactly one name"),
    ],
)
def test_reader_error_texts(text, message):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert str(err.value) == message


def test_nominal_names_read_from_nf():
    t = parse_theory("GCI0 {a} B\n#individual a\n")
    assert t.signature.concepts.name_of(t.axioms[0].sub) == "{a}"


def test_parse_axiom_needs_the_signature():
    sig = parse_theory("GCI2 A r B\n").signature
    assert parse_axiom(" GCI2 A r B ", sig) == GCI2(2, 0, 3)
    for line, unknown in [("GCI2 A s B", "'s'"), ("GCI0 A C", "'C'")]:
        with pytest.raises(ParseError) as err:
            parse_axiom(line, sig)
        assert str(err.value) == f"line 1: unknown name: {unknown} (not in the theory signature)"
    with pytest.raises(ParseError, match="not an axiom line"):
        parse_axiom("# GCI0 A B", sig)
    with pytest.raises(ParseError, match="expects 2 names"):
        parse_axiom("GCI0 A", sig)
