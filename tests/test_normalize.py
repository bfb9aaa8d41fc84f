"""Rewriting into normal forms and the `.elpp` grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.core import (
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    RI1,
    ParseError,
    serialize_theory,
)
from elkbc.normalize import (
    And,
    Bot,
    Equiv,
    Instance,
    Name,
    Nominal,
    RoleAssertion,
    RoleChainSub,
    Some,
    Sub,
    Top,
    axiom_to_str,
    expr_to_str,
    normalize,
    parse_input,
)
from elkbc.reasoner import classify


def names_of(theory, ax_slots):
    return tuple(theory.signature.concepts.name_of(i) for i in ax_slots)


def test_conjunction_on_the_right_splits():
    theory, ledger = normalize([Sub(Name("B"), And(Name("C"), Name("D")))])
    assert [type(a) for a in theory.axioms] == [GCI0, GCI0]
    assert ledger == []
    assert names_of(theory, (theory.axioms[0].sub, theory.axioms[0].sup)) == ("B", "C")
    assert names_of(theory, (theory.axioms[1].sub, theory.axioms[1].sup)) == ("B", "D")


def test_bot_on_the_left_is_dropped():
    theory, ledger = normalize([Sub(Bot(), Name("D"))])
    assert theory.axioms == ()
    assert "D" in theory.signature.concepts  # still in the signature


def test_already_normal_axiom_unchanged():
    theory, ledger = normalize([Sub(Name("A"), Name("B"))])
    assert [type(a) for a in theory.axioms] == [GCI0]
    assert ledger == []


def test_existential_with_complex_filler_on_the_left():
    theory, ledger = normalize(
        [Sub(Some("r", And(Name("A"), Name("B"))), Name("C"))]
    )
    assert [type(a) for a in theory.axioms] == [GCI1, GCI3]
    gci1, gci3 = theory.axioms
    names = theory.signature.concepts
    assert names.name_of(gci1.sup) == "_N1"
    assert names.name_of(gci3.filler) == "_N1"
    assert names.name_of(gci3.sup) == "C"
    assert ledger == [("_N1", "and(A,B)")]


def test_role_chain_peels_into_fresh_roles():
    theory, ledger = normalize([RoleChainSub(("r1", "r2", "r3"), "s")])
    assert [type(a) for a in theory.axioms] == [RI1, RI1]
    roles = theory.signature.roles
    first, second = theory.axioms
    assert (roles.name_of(first.first), roles.name_of(first.second)) == ("r1", "r2")
    assert roles.name_of(first.sup) == "_u1"
    assert (roles.name_of(second.first), roles.name_of(second.second)) == ("_u1", "r3")
    assert roles.name_of(second.sup) == "s"
    assert ledger == [("_u1", "r1 o r2")]


def test_equivalence_expands_both_directions():
    theory, _ = normalize(parse_input("equiv(A, B)"))
    assert [type(a) for a in theory.axioms] == [GCI0, GCI0]


def test_instance_becomes_nominal_subclass():
    theory, _ = normalize(parse_input("instance(some(hf,GO1), p1)"))
    (ax,) = theory.axioms
    assert isinstance(ax, GCI2)
    assert theory.signature.concepts.name_of(ax.sub) == "{p1}"
    assert "p1" in theory.signature.individuals


def test_role_assertion_becomes_gci2_over_nominals():
    theory, _ = normalize(parse_input("role(iw, p1, p2)"))
    (ax,) = theory.axioms
    assert isinstance(ax, GCI2)
    names = theory.signature.concepts
    assert names.name_of(ax.sub) == "{p1}"
    assert names.name_of(ax.filler) == "{p2}"


def test_bot_target_produces_bot_variants():
    theory, _ = normalize(parse_input("sub(and(A,B), bot)\nsub(some(r,A), bot)\nsub(A, bot)"))
    assert [type(a) for a in theory.axioms] == [GCI1Bot, GCI3Bot, GCI0Bot]


def test_output_purity_on_random_nested_inputs():
    rng = np.random.default_rng(5)

    def random_expr(depth):
        kind = rng.integers(0, 5 if depth else 2)
        if kind == 0:
            return Name(f"C{rng.integers(0, 6)}")
        if kind == 1:
            return Nominal(f"i{rng.integers(0, 3)}")
        if kind == 2:
            return And(random_expr(depth - 1), random_expr(depth - 1))
        if kind == 3:
            return Some(f"r{rng.integers(0, 2)}", random_expr(depth - 1))
        return Name(f"C{rng.integers(0, 6)}")

    from elkbc.core import AXIOM_TAGS, axiom_tag

    for _ in range(100):
        theory, _ = normalize([Sub(random_expr(3), random_expr(3))])
        for ax in theory.axioms:
            assert axiom_tag(ax) in AXIOM_TAGS


def test_determinism_byte_identical():
    text = "sub(some(r, and(A, some(s, B))), and(C, some(r, D)))\nequiv(X, and(A,B))"
    out1 = serialize_theory(normalize(parse_input(text))[0])
    out2 = serialize_theory(normalize(parse_input(text))[0])
    assert out1 == out2


def test_parse_input_forms():
    axs = parse_input(
        "sub(and(GO1,GO2), bot)\ninstance(some(hf,GO1), p1)\nrsub(r o s, t)\nrole(r, a, b)"
    )
    assert isinstance(axs[0], Sub) and isinstance(axs[0].sup, Bot)
    assert isinstance(axs[2], RoleChainSub) and axs[2].chain == ("r", "s")
    assert axiom_to_str(axs[2]) == "rsub(r o s, t)"


def test_nary_conjunction_left_associates():
    (ax,) = parse_input("sub(and(A,B,C), D)")
    assert isinstance(ax.sub, And)
    assert isinstance(ax.sub.left, And)
    assert ax.sub.right == Name("C")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_input("sub(and(A,), B)")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_input("sub(A, B) trailing")
    with pytest.raises(ParseError):
        parse_input("frob(A, B)")


# -- the reader against printed axioms and recorded errors ------------------

_RESERVED_WORDS = {"and", "some", "one", "bot", "top", "o"}
# names may hold braces, '#' and non-ASCII letters, never whitespace or "(),"
_WORDS = st.text(alphabet="abXY_:#{}é7", min_size=1, max_size=4).filter(
    lambda w: w not in _RESERVED_WORDS
)
_CONCEPT_NAMES = _WORDS.filter(lambda w: not (w[0] == "{" and w[-1] == "}"))
_CONCEPTS = st.recursive(
    st.one_of(
        st.builds(Name, _CONCEPT_NAMES),
        st.builds(Nominal, _WORDS),
        st.just(Bot()),
        st.just(Top()),
    ),
    lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Some, _WORDS, inner)),
    max_leaves=6,
)
_INPUT_AXIOMS = st.one_of(
    st.builds(Sub, _CONCEPTS, _CONCEPTS),
    st.builds(Equiv, _CONCEPTS, _CONCEPTS),
    st.builds(Instance, _CONCEPTS, _WORDS),
    st.builds(RoleAssertion, _WORDS, _WORDS, _WORDS),
    st.builds(RoleChainSub, st.lists(_WORDS, min_size=1, max_size=4).map(tuple), _WORDS),
)
# whitespace to str.isspace that str.splitlines does not break lines at
_SPACES = ["", " ", "\t", "  ", "\u00a0", "\u3000"]


def _nary(expr) -> str:
    """``expr_to_str`` with each left-nested conjunction printed n-ary."""
    if isinstance(expr, And):
        args = [expr.right]
        while isinstance(expr.left, And):
            expr = expr.left
            args.append(expr.right)
        args.append(expr.left)
        return "and(" + ",".join(_nary(a) for a in reversed(args)) + ")"
    if isinstance(expr, Some):
        return f"some({expr.role},{_nary(expr.filler)})"
    return expr_to_str(expr)


def _respace(line: str, rnd) -> str:
    """The line with random whitespace around punctuation and in place of
    each space, and around the whole line."""
    out = [rnd.choice(_SPACES)]
    for ch in line:
        if ch in "(),":
            out += [rnd.choice(_SPACES), ch, rnd.choice(_SPACES)]
        elif ch == " ":
            out.append(rnd.choice(_SPACES[1:]))
        else:
            out.append(ch)
    return "".join(out + [rnd.choice(_SPACES)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    axioms=st.lists(_INPUT_AXIOMS, min_size=1, max_size=6), rnd=st.randoms(use_true_random=False)
)
def test_reader_gives_printed_axioms_back(axioms, rnd):
    lines = []
    for ax in axioms:
        line = axiom_to_str(ax)
        if isinstance(ax, Sub) and rnd.random() < 0.5:
            line = f"sub({_nary(ax.sub)}, {_nary(ax.sup)})"
        lines.append(_respace(line, rnd))
        if rnd.random() < 0.2:
            lines.append(rnd.choice(["", "  ", "# sub(A, B)", " #x"]))
    assert parse_input("\n".join(lines)) == axioms


#: the exact ParseError texts of the per-character tokenizer this reader replaced
_ERROR_TEXTS = [
    ("sub(,A, B)", "line 1: expected concept, got ',' at token 3"),
    ("sub(A B, C)", "line 1: expected ',', got 'B' at token 4"),
    ("sub(one(a b), C)", "line 1: expected ')', got 'b' at token 6"),
    ("sub(some(r), C)", "line 1: expected ',', got ')' at token 6"),
    ("sub(and(A,B,), C)", "line 1: expected concept, got ')' at token 9"),
    ("rsub(r o, s)", "line 1: expected role name, got ',' at token 5"),
    ("rsub(, s)", "line 1: expected role name, got ',' at token 3"),
    ("sub(", "line 1: unexpected end of line"),
    ("sub", "line 1: unexpected end of line"),
    ("(", "line 1: unexpected end of line"),
    ("sub(A, B", "line 1: unexpected end of line"),
    ("role(r, a, top)", "line 1: expected individual name, got 'top' at token 7"),
    ("frob(A, B)", "line 1: unknown axiom form 'frob'"),
    ("sub(A, B) trailing", "line 1: trailing tokens after axiom: 'trailing'"),
    ("sub(and(A), B)", "line 1: expected ',', got ')' at token 6"),
    ("sub(some(and, A), B)", "line 1: expected role name, got 'and' at token 5"),
    ("role(r, a)", "line 1: expected ',', got ')' at token 6"),
    ("sub(A, B))", "line 1: trailing tokens after axiom: ')'"),
    ("rsub(r, s o t)", "line 1: expected ')', got 'o' at token 6"),
    ("sub(one(), C)", "line 1: expected individual name, got ')' at token 5"),
    ("sub(A, and)", "line 1: expected '(', got ')' at token 6"),
    ("sub(A,B)\nsub(C", "line 2: unexpected end of line"),
]


@pytest.mark.parametrize("line,message", _ERROR_TEXTS)
def test_parse_error_texts(line, message):
    with pytest.raises(ParseError) as err:
        parse_input(line)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "line,token",
    [
        ("sub({a}, B)", 3),
        ("sub(B, some(r, {a}))", 9),
        ("sub(and(A, {}), B)", 7),
        ("instance({a}, b)", 3),
        ("equiv(A, {a} )", 5),
    ],
)
def test_concept_name_of_nominal_form_rejected(line, token):
    with pytest.raises(ParseError) as err:
        parse_input(line)
    assert str(err.value).startswith("line 1: concept name ")
    assert f"at token {token} " in str(err.value)


def test_named_concept_is_not_the_nominal():
    # read as a concept name, {a} would be one(a), and a would get type B
    with pytest.raises(ParseError):
        parse_input("sub({a}, B)\ninstance(C, a)")
    # an individual may have that form: its nominal is {{x}}, a fresh name
    theory, _ = normalize(parse_input("instance(C, {x})\nsub(one({x}), D)"))
    assert "{{x}}" in theory.signature.concepts
    assert "{x}" not in theory.signature.concepts


def test_reader_shares_one_name_per_distinct_name():
    first, second = parse_input("sub(A, B)\nsub(B, some(r, A))")
    assert first.sup is second.sub
    assert first.sub is second.sup.filler


# -- conservativity against hand-normalized references -----------------------

# Each case: input text, reference normal-form text over the original names
# plus explicitly chosen helper names.  The entailed subsumptions restricted
# to the original concept names must coincide.
_CONSERVATIVITY_CASES = [
    (
        "sub(X, and(Y, Z))\nsub(Y, W)",
        "GCI0 X Y\nGCI0 X Z\nGCI0 Y W",
        ("X", "Y", "Z", "W"),
    ),
    (
        "sub(some(r, and(A,B)), C)\nsub(D, A)\nsub(D, B)",
        "GCI1 A B H1\nGCI3 r H1 C\nGCI0 D A\nGCI0 D B",
        ("A", "B", "C", "D"),
    ),
    (
        "sub(A, some(r, and(B, C)))\nsub(some(r, B), D)",
        "GCI2 A r H1\nGCI0 H1 B\nGCI0 H1 C\nGCI3 r B D",
        ("A", "B", "C", "D"),
    ),
    (
        "equiv(A, and(B, C))\nsub(B, bot)",
        "GCI0 A B\nGCI0 A C\nGCI1 B C A\nGCI0_BOT B",
        ("A", "B", "C"),
    ),
]


@pytest.mark.parametrize("input_text,reference,original", _CONSERVATIVITY_CASES)
def test_conservative_over_original_names(input_text, reference, original):
    from elkbc.core import parse_theory

    ours, _ = normalize(parse_input(input_text))
    ref = parse_theory(reference)

    def entailed_pairs(theory):
        index, _, _ = classify(theory)
        names = theory.signature.concepts
        pairs = set()
        for a in range(theory.n_concepts):
            for b in index.sup[a]:
                na, nb = names.name_of(a), names.name_of(b)
                if na in original and nb in original:
                    pairs.add((na, nb))
        return pairs

    assert entailed_pairs(ours) == entailed_pairs(ref)
