"""Rewriting of arbitrary EL++ input axioms into the nine normal forms.

Input axioms use the `.elpp` line grammar::

    sub(<c>, <c>)            concept inclusion
    equiv(<c>, <c>)          concept equivalence
    instance(<c>, <ind>)     concept assertion
    role(<r>, <ind>, <ind>)  role assertion
    rsub(<r> [o <r>]*, <r>)  role (chain) inclusion

    <c> ::= bot | top | <name> | and(<c>,<c>[,<c>...]) | some(<r>,<c>) | one(<ind>)

``and`` accepts more than two arguments and associates to the left.  The words
``and``, ``some``, ``one``, ``bot``, ``top`` are reserved; ``o`` is reserved
inside ``rsub`` chains.  A concept name may not have the form ``{...}`` (begin
with ``{`` and end with ``}``): that is how nominals are named once normalized,
so ``{a}`` would be the nominal ``one(a)``.  Individual names need no such rule,
since ``one({x})`` names the concept ``{{x}}``, itself of that form.  ``#``
starts a comment line.

Rewriting introduces fresh concept names ``_N1, _N2, ...`` and fresh role
names ``_u1, _u2, ...`` numbered in first-use order; subexpressions are
normalized before the axiom that encloses them, so numbering is deterministic
for a given input.  Nominals ``one(a)`` become plain concept names ``{a}``
(no unique-name assumption, no nominal-specific reasoning), equivalences are
expanded into two inclusions before rewriting, concept assertions
``instance(C, a)`` become ``{a} [= C``, and role assertions ``role(r, a, b)``
become ``{a} [= Er.{b}``.  ``bot [= D`` is dropped.  Normalization is a pure
function of its input: results carry a per-invocation fresh-name ledger.

Signature ids are given by a pre-pass before any rewriting: axioms in input
order, each axiom's operands left to right and each expression's names left
to right, except that ``instance(C, a)`` interns ``{a}`` before ``C``.  So
``instance(C, a)``, ``role(r, b, c)``, ``sub(some(s, D), E)`` give the concepts
``owl:Thing, owl:Nothing, {a}, C, {b}, {c}, D, E`` and the roles ``r, s``.
Fresh names follow, in the order the rewrite introduces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    BOT_ID,
    TOP_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    Interner,
    RI0,
    RI1,
    ParseError,
    Signature,
    Theory,
    _collector_paused,
)

_RESERVED = {"and", "some", "one", "bot", "top", "o"}


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Name:
    name: str


@dataclass(frozen=True, slots=True)
class And:
    left: "ConceptExpr"
    right: "ConceptExpr"


@dataclass(frozen=True, slots=True)
class Some:
    role: str
    filler: "ConceptExpr"


@dataclass(frozen=True, slots=True)
class Nominal:
    individual: str


ConceptExpr = Union[Bot, Top, Name, And, Some, Nominal]
_CONSTANT_IDS = {Bot: BOT_ID, Top: TOP_ID}


@dataclass(frozen=True, slots=True)
class Sub:
    sub: ConceptExpr
    sup: ConceptExpr


@dataclass(frozen=True, slots=True)
class Equiv:
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True, slots=True)
class Instance:
    concept: ConceptExpr
    individual: str


@dataclass(frozen=True, slots=True)
class RoleAssertion:
    role: str
    subject: str
    object: str


@dataclass(frozen=True, slots=True)
class RoleChainSub:
    chain: tuple[str, ...]
    sup: str

    def __post_init__(self):
        if len(self.chain) < 1:
            raise ValueError("role chain must have length >= 1")


InputAxiom = Union[Sub, Equiv, Instance, RoleAssertion, RoleChainSub]


def expr_to_str(expr: ConceptExpr) -> str:
    if isinstance(expr, Bot):
        return "bot"
    if isinstance(expr, Top):
        return "top"
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Nominal):
        return f"one({expr.individual})"
    if isinstance(expr, And):
        return f"and({expr_to_str(expr.left)},{expr_to_str(expr.right)})"
    if isinstance(expr, Some):
        return f"some({expr.role},{expr_to_str(expr.filler)})"
    raise TypeError(f"not a concept expression: {expr!r}")


def axiom_to_str(ax: InputAxiom) -> str:
    if isinstance(ax, Sub):
        return f"sub({expr_to_str(ax.sub)}, {expr_to_str(ax.sup)})"
    if isinstance(ax, Equiv):
        return f"equiv({expr_to_str(ax.left)}, {expr_to_str(ax.right)})"
    if isinstance(ax, Instance):
        return f"instance({expr_to_str(ax.concept)}, {ax.individual})"
    if isinstance(ax, RoleAssertion):
        return f"role({ax.role}, {ax.subject}, {ax.object})"
    if isinstance(ax, RoleChainSub):
        return f"rsub({' o '.join(ax.chain)}, {ax.sup})"
    raise TypeError(f"not an input axiom: {ax!r}")


# ---------------------------------------------------------------------------
# .elpp parsing
# ---------------------------------------------------------------------------


#: tokens that cannot be a name
_NOT_A_NAME = frozenset("(),") | _RESERVED
_BOT = Bot()
_TOP = Top()


class _Unexpected(Exception):
    """A malformed line; the message lacks only the line number."""


def _expected(toks: list[str], i: int, what: str) -> _Unexpected:
    return _Unexpected(f"expected {what}, got {toks[i]!r} at token {i + 1}")


def _name(toks: list[str], i: int, what: str) -> str:
    tok = toks[i]
    if tok in _NOT_A_NAME:
        raise _expected(toks, i, what)
    return tok


def _concept(toks: list[str], i: int, names: dict[str, Name]) -> tuple[ConceptExpr, int]:
    """The concept expression starting at token ``i`` and the index after it;
    ``names`` holds the one ``Name`` per distinct name of the call."""
    tok = toks[i]
    if tok not in _NOT_A_NAME:
        expr = names.get(tok)
        if expr is None:
            if tok[0] == "{" and tok[-1] == "}":
                raise _Unexpected(f"concept name {tok!r} at token {i + 1} has a nominal's form")
            expr = names[tok] = Name(tok)
        return expr, i + 1
    if tok == "bot":
        return _BOT, i + 1
    if tok == "top":
        return _TOP, i + 1
    if tok not in ("and", "some", "one"):
        raise _expected(toks, i, "concept")
    if toks[i + 1] != "(":
        raise _expected(toks, i + 1, "'('")
    if tok == "and":
        expr, i = _concept(toks, i + 2, names)
        if toks[i] != ",":
            raise _expected(toks, i, "','")
        while toks[i] == ",":
            right, i = _concept(toks, i + 1, names)
            expr = And(expr, right)
    elif tok == "some":
        role = _name(toks, i + 2, "role name")
        if toks[i + 3] != ",":
            raise _expected(toks, i + 3, "','")
        filler, i = _concept(toks, i + 4, names)
        expr = Some(role, filler)
    else:
        expr = Nominal(_name(toks, i + 2, "individual name"))
        i += 3
    if toks[i] != ")":
        raise _expected(toks, i, "')'")
    return expr, i + 1


def _axiom(toks: list[str], names: dict[str, Name]) -> InputAxiom:
    """The input axiom that is the whole token list ``toks``."""
    head = toks[0]
    if toks[1] != "(":
        raise _expected(toks, 1, "'('")
    if head == "sub" or head == "equiv":
        left, i = _concept(toks, 2, names)
        if toks[i] != ",":
            raise _expected(toks, i, "','")
        right, i = _concept(toks, i + 1, names)
        ax = (Sub if head == "sub" else Equiv)(left, right)
    elif head == "instance":
        concept, i = _concept(toks, 2, names)
        if toks[i] != ",":
            raise _expected(toks, i, "','")
        ax = Instance(concept, _name(toks, i + 1, "individual name"))
        i += 2
    elif head == "role":
        role = _name(toks, 2, "role name")
        if toks[3] != ",":
            raise _expected(toks, 3, "','")
        subject = _name(toks, 4, "individual name")
        if toks[5] != ",":
            raise _expected(toks, 5, "','")
        ax = RoleAssertion(role, subject, _name(toks, 6, "individual name"))
        i = 7
    elif head == "rsub":
        chain = [_name(toks, 2, "role name")]
        i = 3
        while toks[i] == "o":
            chain.append(_name(toks, i + 1, "role name"))
            i += 2
        if toks[i] != ",":
            raise _expected(toks, i, "','")
        ax = RoleChainSub(tuple(chain), _name(toks, i + 1, "role name"))
        i += 2
    else:
        raise _Unexpected(f"unknown axiom form {head!r}")
    if toks[i] != ")":
        raise _expected(toks, i, "')'")
    if i + 1 < len(toks):
        raise _Unexpected(f"trailing tokens after axiom: {toks[i + 1]!r}")
    return ax


@_collector_paused()
def parse_input(text: str) -> list[InputAxiom]:
    """Parse `.elpp` text into input axioms; raises ParseError with position.

    A line's tokens are its whitespace-separated words once ``(``, ``)`` and
    ``,`` are spaced out; an index-based recursive descent reads them.  A
    concept name read twice yields the same ``Name`` object within a call,
    and ``bot`` / ``top`` one ``Bot`` / ``Top`` each.
    The cyclic collector is paused while it runs (see
    ``core._collector_paused``).
    """
    names: dict[str, Name] = {}
    axioms = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        toks = line.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
        try:
            axioms.append(_axiom(toks, names))
        except IndexError:  # the reader indexes past the line's last token
            raise ParseError(line_no, "unexpected end of line") from None
        except _Unexpected as exc:
            raise ParseError(line_no, str(exc)) from None
    return axioms


def load_input(path) -> list[InputAxiom]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input(fh.read())


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _nominal_name(individual: str) -> str:
    return "{" + individual + "}"


class _Normalizer:
    def __init__(self):
        self.sig = Signature()
        self.out: list = []
        self.ledger: list[tuple[str, str]] = []
        self._counters = {"_N": 0, "_u": 0}
        # the rewrite reads ids the pre-pass interned; it interns only fresh names
        self._concept_id, self._role_id = self.sig.concepts.id_of, self.sig.roles.id_of

    def fresh(self, names: Interner, prefix: str, stands_for: str) -> int:
        """Interns ``prefix<k>`` for the next k whose name is free; records it."""
        while True:
            self._counters[prefix] += 1
            name = f"{prefix}{self._counters[prefix]}"
            if name not in names:
                self.ledger.append((name, stands_for))
                return names.intern(name)

    def intern_nominal(self, individual: str) -> None:
        self.sig.individuals.intern(individual)
        self.sig.concepts.intern(_nominal_name(individual))

    def intern_names(self, expr: ConceptExpr) -> None:
        """Pre-pass: intern the names of ``expr`` left to right."""
        kind = type(expr)
        if kind is Name:
            self.sig.concepts.intern(expr.name)
        elif kind is And:
            self.intern_names(expr.left)
            self.intern_names(expr.right)
        elif kind is Some:
            self.sig.roles.intern(expr.role)
            self.intern_names(expr.filler)
        elif kind is Nominal:
            self.intern_nominal(expr.individual)
        elif kind is not Bot and kind is not Top:
            raise TypeError(f"not a concept expression: {expr!r}")

    def atom(self, expr: ConceptExpr) -> Optional[int]:
        """The id of an atomic concept, None for ``And`` / ``Some``."""
        kind = type(expr)
        if kind is Name:
            return self._concept_id(expr.name)
        if kind is Nominal:
            return self._concept_id(_nominal_name(expr.individual))
        return _CONSTANT_IDS.get(kind)

    def name_lhs(self, expr: ConceptExpr) -> int:
        """Name a subclass-position expression; emits ``expr [= fresh``."""
        if (ident := self.atom(expr)) is not None:
            return ident
        if type(expr) is And:
            left = self.name_lhs(expr.left)
            right = self.name_lhs(expr.right)
            fresh = self.fresh(self.sig.concepts, "_N", expr_to_str(expr))
            self._emit_gci1(left, right, fresh)
            return fresh
        filler = self.name_lhs(expr.filler)
        fresh = self.fresh(self.sig.concepts, "_N", expr_to_str(expr))
        self._emit_gci3(self._role_id(expr.role), filler, fresh)
        return fresh

    def name_rhs(self, expr: ConceptExpr) -> int:
        """Name a superclass-position expression; emits ``fresh [= expr``."""
        if (ident := self.atom(expr)) is not None:
            return ident
        fresh = self.fresh(self.sig.concepts, "_N", expr_to_str(expr))
        self.norm_sub(Name(self.sig.concepts.name_of(fresh)), expr)
        return fresh

    def _emit_gci1(self, left: int, right: int, sup: int) -> None:
        if sup == BOT_ID:
            # A conjunct Bot would make the axiom trivially true, and the BOT
            # variant has no slot for it.
            if BOT_ID not in (left, right):
                self.out.append(GCI1Bot(left, right))
        else:
            self.out.append(GCI1(left, right, sup))

    def _emit_gci3(self, role: int, filler: int, sup: int) -> None:
        if sup == BOT_ID:
            if filler != BOT_ID:
                self.out.append(GCI3Bot(role, filler))
        else:
            self.out.append(GCI3(role, filler, sup))

    def _emit_gci0(self, sub: int, sup: int) -> None:
        if sub == BOT_ID:
            return
        if sup == BOT_ID:
            self.out.append(GCI0Bot(sub))
        else:
            self.out.append(GCI0(sub, sup))

    def norm_sub(self, sub: ConceptExpr, sup: ConceptExpr) -> None:
        sub_kind, sup_kind = type(sub), type(sup)
        if sub_kind is Name and sup_kind is Name:
            self._emit_gci0(self._concept_id(sub.name), self._concept_id(sup.name))
            return
        if sub_kind is Bot:
            return
        if sup_kind is And:
            self.norm_sub(sub, sup.left)
            self.norm_sub(sub, sup.right)
            return
        if sup_kind is Some:
            sub_id = self.name_lhs(sub)
            filler = self.name_rhs(sup.filler)
            self.out.append(GCI2(sub_id, self._role_id(sup.role), filler))
            return
        sup_id = self.atom(sup)
        if sub_kind is And:
            left = self.name_lhs(sub.left)
            right = self.name_lhs(sub.right)
            self._emit_gci1(left, right, sup_id)
        elif sub_kind is Some:
            filler = self.name_lhs(sub.filler)
            self._emit_gci3(self._role_id(sub.role), filler, sup_id)
        else:
            self._emit_gci0(self.atom(sub), sup_id)

    def norm_chain(self, chain: tuple[str, ...], sup: str) -> None:
        # r1 o ... o rk [= s peels from the right; fully expanded that is a
        # left fold, so fresh roles emerge in emission order.
        ids = [self._role_id(r) for r in chain]
        sup_id = self._role_id(sup)
        if len(ids) == 1:
            self.out.append(RI0(ids[0], sup_id))
            return
        acc = ids[0]
        for i in range(1, len(ids) - 1):
            fresh = self.fresh(self.sig.roles, "_u", " o ".join(chain[: i + 1]))
            self.out.append(RI1(acc, ids[i], fresh))
            acc = fresh
        self.out.append(RI1(acc, ids[-1], sup_id))

    def run(self, axioms: list[InputAxiom]) -> None:
        concept, role = self.sig.concepts.intern, self.sig.roles.intern
        for ax in axioms:
            kind = type(ax)
            if kind is Sub or kind is Equiv:
                for expr in (ax.sub, ax.sup) if kind is Sub else (ax.left, ax.right):
                    if type(expr) is Name:
                        concept(expr.name)
                    else:
                        self.intern_names(expr)
            elif kind is Instance:
                self.intern_nominal(ax.individual)
                self.intern_names(ax.concept)
            elif kind is RoleAssertion:
                self.intern_nominal(ax.subject)
                role(ax.role)
                self.intern_nominal(ax.object)
            elif kind is RoleChainSub:
                for r in (*ax.chain, ax.sup):
                    role(r)
            else:
                raise TypeError(f"not an input axiom: {ax!r}")
        for ax in axioms:
            kind = type(ax)
            if kind is Sub:
                self.norm_sub(ax.sub, ax.sup)
            elif kind is Equiv:
                self.norm_sub(ax.left, ax.right)
                self.norm_sub(ax.right, ax.left)
            elif kind is Instance:
                self.norm_sub(Nominal(ax.individual), ax.concept)
            elif kind is RoleAssertion:
                self.norm_sub(Nominal(ax.subject), Some(ax.role, Nominal(ax.object)))
            else:
                self.norm_chain(ax.chain, ax.sup)


@_collector_paused()
def normalize(axioms: list[InputAxiom]) -> tuple[Theory, list[tuple[str, str]]]:
    """Rewrite input axioms into a normalized Theory.

    Returns the theory and the fresh-name ledger: ``(fresh name, expression it
    stands for)`` pairs in introduction order.  The cyclic collector is paused
    while it runs (see ``core._collector_paused``).
    """
    norm = _Normalizer()
    norm.run(axioms)
    return Theory(norm.sig, norm.out), norm.ledger
