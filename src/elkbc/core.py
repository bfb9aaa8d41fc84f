"""Identifier interning, the normalized-axiom data model, and the `.nf` file format.

A theory is a signature (concept / role / individual names, each interned to a
dense integer id) together with an ordered, duplicate-free list of normalized
axioms.  Nine axiom shapes exist:

    GCI0      A [= B
    GCI1      A n B [= E
    GCI2      A [= Er.B
    GCI3      Er.A [= B
    GCI0_BOT  A [= Bot
    GCI1_BOT  A n B [= Bot
    GCI3_BOT  Er.A [= Bot
    RI0       r [= s
    RI1       r1 o r2 [= s

`owl:Thing` (Top) and `owl:Nothing` (Bot) are ordinary interned concepts with
the reserved ids 0 and 1, so downstream rule engines can quantify over "all
concepts including Top" uniformly.  BOT variants never carry Bot in a slot;
the Bot target is implied by the tag.

`.nf` format: one axiom per line, whitespace-separated tokens, first token the
variant tag, remaining tokens names in slot order (``GCI0 A B``, ``GCI1 A B E``,
``GCI2 A r B``, ``GCI3 r A B``, ``GCI0_BOT A``, ``GCI1_BOT A B``,
``GCI3_BOT r A``, ``RI0 r s``, ``RI1 r1 r2 s``).  Lines starting with ``#`` are
comments, except the signature directives ``#concept N``, ``#role N`` and
``#individual N`` which declare names (so a signature survives a round trip
even when a name appears in no axiom).  Names are opaque strings; IRIs are not
resolved or validated.

The hot paths (sampling, losses, training, ranking) work on an ``AxiomTable``:
per row a variant code and up to three ``int64`` ids in `.nf` slot order, the
order of the dataclass fields.  ``Theory.table`` is built once; the frozen
dataclasses stay the readable reference view a table yields when indexed.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Union

import numpy as np

TOP = "owl:Thing"
BOT = "owl:Nothing"
TOP_ID = 0
BOT_ID = 1


class ParseError(ValueError):
    """Malformed theory input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Interner:
    """Bijective name <-> dense non-negative id mapping."""

    def __init__(self, reserved: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        for name in reserved:
            self.intern(name)

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._ids[name] = ident
            self._names.append(name)
        return ident

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown name: {name!r}") from None

    def name_of(self, ident: int) -> str:
        return self._names[ident]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)


@dataclass(frozen=True, slots=True)
class GCI0:
    sub: int
    sup: int


@dataclass(frozen=True, slots=True)
class GCI1:
    left: int
    right: int
    sup: int


@dataclass(frozen=True, slots=True)
class GCI2:
    sub: int
    role: int
    filler: int


@dataclass(frozen=True, slots=True)
class GCI3:
    role: int
    filler: int
    sup: int


@dataclass(frozen=True, slots=True)
class GCI0Bot:
    sub: int


@dataclass(frozen=True, slots=True)
class GCI1Bot:
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class GCI3Bot:
    role: int
    filler: int


@dataclass(frozen=True, slots=True)
class RI0:
    sub: int
    sup: int


@dataclass(frozen=True, slots=True)
class RI1:
    first: int
    second: int
    sup: int


NormalizedAxiom = Union[GCI0, GCI1, GCI2, GCI3, GCI0Bot, GCI1Bot, GCI3Bot, RI0, RI1]

#: tag string <-> axiom class, in Table-order
AXIOM_TAGS: dict[str, type] = {
    "GCI0": GCI0,
    "GCI1": GCI1,
    "GCI2": GCI2,
    "GCI3": GCI3,
    "GCI0_BOT": GCI0Bot,
    "GCI1_BOT": GCI1Bot,
    "GCI3_BOT": GCI3Bot,
    "RI0": RI0,
    "RI1": RI1,
}
TAG_OF = {cls: tag for tag, cls in AXIOM_TAGS.items()}

#: which slots hold concept ids / role ids, in line token order
_SLOT_KINDS: dict[str, tuple[str, ...]] = {
    "GCI0": ("c", "c"),
    "GCI1": ("c", "c", "c"),
    "GCI2": ("c", "r", "c"),
    "GCI3": ("r", "c", "c"),
    "GCI0_BOT": ("c",),
    "GCI1_BOT": ("c", "c"),
    "GCI3_BOT": ("r", "c"),
    "RI0": ("r", "r"),
    "RI1": ("r", "r", "r"),
}


#: tag -> dataclass field names; the fields follow the `.nf` slot order
SLOT_NAMES: dict[str, tuple[str, ...]] = {
    tag: tuple(f.name for f in fields(cls)) for tag, cls in AXIOM_TAGS.items()
}
#: variant code -> tag; an id-table row's code indexes this
VARIANTS: tuple[str, ...] = tuple(AXIOM_TAGS)
_CODE_OF = {cls: code for code, cls in enumerate(AXIOM_TAGS.values())}
#: variant code x slot -> 0 (no such slot), 1 (concept) or 2 (role)
_KIND_OF_SLOT = np.array([
    [{"c": 1, "r": 2}[k] for k in _SLOT_KINDS[tag]] + [0] * (3 - len(_SLOT_KINDS[tag]))
    for tag in VARIANTS
])


def axiom_tag(ax: NormalizedAxiom) -> str:
    return TAG_OF[type(ax)]


def axiom_slots(ax: NormalizedAxiom) -> tuple[int, ...]:
    """Slot ids in the `.nf` token order."""
    if type(ax) not in TAG_OF:
        raise TypeError(f"not a normalized axiom: {ax!r}")
    return tuple(getattr(ax, name) for name in SLOT_NAMES[TAG_OF[type(ax)]])


class AxiomTable(Sequence):
    """Normalized axioms as rows of ids, the representation every hot path
    works on.

    Row i is the variant code ``codes[i]`` (an index into ``VARIANTS``) and
    the ids ``cols[:, i]`` in `.nf` slot order, -1 in the slots its variant
    lacks; ``cols`` has one ``int64`` column array per slot.  A table may mix
    variants.  As a ``Sequence`` it is the dataclass reference view of its
    rows: ``len`` counts axioms, an integer index or iteration yields the
    frozen dataclasses, and a slice, index array or mask selects a table of
    rows.  A list of dataclasses converts with ``from_axioms``.
    """

    __hash__ = None

    def __init__(self, codes: np.ndarray, cols: np.ndarray):
        self.codes = codes
        self.cols = cols

    @classmethod
    def from_axioms(cls, axioms: Iterable[NormalizedAxiom]) -> "AxiomTable":
        if isinstance(axioms, AxiomTable):
            return axioms
        axioms = list(axioms)
        code_list = [_CODE_OF.get(type(ax), -1) for ax in axioms]
        if -1 in code_list:
            raise TypeError(f"not a normalized axiom: {axioms[code_list.index(-1)]!r}")
        codes = np.array(code_list, np.int8)
        cols = np.full((3, len(axioms)), -1, np.int64)
        for code in set(code_list):
            rows = np.flatnonzero(codes == code)
            subset = [axioms[i] for i in rows.tolist()]
            for j, name in enumerate(SLOT_NAMES[VARIANTS[code]]):
                cols[j, rows] = np.fromiter(map(attrgetter(name), subset), np.int64, len(rows))
        return cls(codes, cols)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            tag = VARIANTS[self.codes[i]]
            return AXIOM_TAGS[tag](*self.cols[: len(SLOT_NAMES[tag]), i].tolist())
        return AxiomTable(self.codes[i], self.cols[:, i])

    def __iter__(self):
        for code, *ids in zip(self.codes.tolist(), *self.cols.tolist()):
            yield AXIOM_TAGS[VARIANTS[code]](*ids[: len(SLOT_NAMES[VARIANTS[code]])])

    def __eq__(self, other) -> bool:
        if isinstance(other, AxiomTable):
            return np.array_equal(self.codes, other.codes) and np.array_equal(self.cols, other.cols)
        return NotImplemented

    def __repr__(self) -> str:
        return f"AxiomTable({list(self)!r})"

    def outside(self, n_concepts: int, n_roles: int) -> np.ndarray:
        """Mask of the rows with an id outside ``[0, n)`` for its slot (-1 where none)."""
        kind = _KIND_OF_SLOT[self.codes].T
        high = np.array([0, n_concepts, n_roles])[kind]
        return ((self.cols < (kind > 0) - 1) | (self.cols >= high)).any(axis=0)

    def ids_of(self, *tags: str) -> Iterator[tuple[int, int, int]]:
        """The three ids of every row of the variants ``tags``, in table order."""
        rows = np.isin(self.codes, [VARIANTS.index(tag) for tag in tags])
        return zip(*self.cols[:, rows].tolist())

    def variants(self) -> list[tuple[str, "AxiomTable"]]:
        """(tag, that variant's rows) per variant, in order of first occurrence."""
        codes, first = np.unique(self.codes, return_index=True)
        if len(codes) == 1:
            return [(VARIANTS[codes[0]], self)]
        return [(VARIANTS[c], self[self.codes == c]) for c in codes[np.argsort(first)].tolist()]


class Signature:
    """Concept, role and individual interners for one theory."""

    def __init__(self):
        self.concepts = Interner(reserved=(TOP, BOT))
        self.roles = Interner()
        self.individuals = Interner()

    def copy(self) -> "Signature":
        sig = Signature()
        for name in self.concepts.names()[2:]:
            sig.concepts.intern(name)
        for name in self.roles.names():
            sig.roles.intern(name)
        for name in self.individuals.names():
            sig.individuals.intern(name)
        return sig


class Theory:
    """An immutable normalized theory: signature plus deduplicated axioms.

    Axioms keep their input order; duplicates are removed at construction
    (rule engines and samplers downstream operate on sets).  Values are safe
    to share across threads once constructed.
    """

    def __init__(self, signature: Signature, axioms: Iterable[NormalizedAxiom]):
        self.signature = signature
        self.axioms: tuple[NormalizedAxiom, ...] = tuple(dict.fromkeys(axioms))
        self.table = AxiomTable.from_axioms(self.axioms)
        bad = self.table.outside(self.n_concepts, self.n_roles)
        if bad.any():
            ax = self.axioms[int(np.argmax(bad))]
            raise ValueError(f"axiom {ax!r} references id outside the signature")

    @property
    def n_concepts(self) -> int:
        return len(self.signature.concepts)

    @property
    def n_roles(self) -> int:
        return len(self.signature.roles)

    def axioms_of(self, cls: type) -> list:
        return [ax for ax in self.axioms if isinstance(ax, cls)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return (
            self.signature.concepts.names() == other.signature.concepts.names()
            and self.signature.roles.names() == other.signature.roles.names()
            and self.signature.individuals.names() == other.signature.individuals.names()
            and self.axioms == other.axioms
        )

    def __repr__(self) -> str:
        return f"Theory(|C|={self.n_concepts}, |R|={self.n_roles}, axioms={len(self.axioms)})"


@contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector, then restore the caller's state.

    The set-up builders (``parse_input``, ``normalize``, ``parse_theory``,
    ``classify``) build hundreds of thousands of objects that stay alive and
    form no cycles, so a full collection during a build frees nothing.  The
    switch is process-wide; nesting is safe, and a pause that ends early in
    another thread costs time, not correctness.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _nf_tags(concept_id: Callable[[str], int], role_id: Callable[[str], int]) -> dict:
    """tag -> (axiom class, per-slot name resolver, concept slots that must
    not hold Bot); names resolve through ``concept_id`` / ``role_id``."""
    resolver = {"c": concept_id, "r": role_id}
    return {
        tag: (
            cls,
            tuple(resolver[kind] for kind in _SLOT_KINDS[tag]),
            tuple(i for i, kind in enumerate(_SLOT_KINDS[tag]) if kind == "c")
            if tag in ("GCI0_BOT", "GCI1_BOT", "GCI3_BOT")
            else (),
        )
        for tag, cls in AXIOM_TAGS.items()
    }


def _nf_axiom(line: str, line_no: int, tags: dict) -> NormalizedAxiom:
    """The axiom on one stripped, non-comment `.nf` line, read with a
    ``_nf_tags`` table."""
    tokens = line.split()
    tag = tokens[0]
    entry = tags.get(tag)
    if entry is None:
        raise ParseError(line_no, f"unknown axiom tag {tag!r}")
    cls, resolvers, bot_slots = entry
    arity = len(resolvers)
    if len(tokens) != arity + 1:
        raise ParseError(
            line_no, f"{tag} expects {arity} names, got {len(tokens) - 1} ({line!r})"
        )
    # unrolled by arity: a comprehension here made each line about 40% slower
    if arity == 2:
        ids = (resolvers[0](tokens[1]), resolvers[1](tokens[2]))
    elif arity == 3:
        ids = (resolvers[0](tokens[1]), resolvers[1](tokens[2]), resolvers[2](tokens[3]))
    else:
        ids = (resolvers[0](tokens[1]),)
    for i in bot_slots:
        if ids[i] == BOT_ID:
            raise ParseError(line_no, f"{tag} must not name {BOT} explicitly")
    return cls(*ids)


@_collector_paused()
def parse_theory(text: str) -> Theory:
    """Parse `.nf` text into a Theory.

    Raises ParseError with the offending line number for unknown tags, arity
    mismatches, Bot in a BOT-variant slot, or malformed directives.  One
    ``split`` per line and one tag table per call; the cyclic collector is
    paused while it runs (see ``_collector_paused``).
    """
    sig = Signature()
    tags = _nf_tags(sig.concepts.intern, sig.roles.intern)
    directives = {
        "#concept": sig.concepts.intern,
        "#role": sig.roles.intern,
        "#individual": sig.individuals.intern,
    }
    axioms: list[NormalizedAxiom] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            tokens = line.split()
            intern = directives.get(tokens[0])
            if intern is not None:
                if len(tokens) != 2:
                    raise ParseError(line_no, f"directive {tokens[0]} expects exactly one name")
                intern(tokens[1])
            continue
        axioms.append(_nf_axiom(line, line_no, tags))
    return Theory(sig, axioms)


def parse_axiom(line: str, sig: Signature) -> NormalizedAxiom:
    """One `.nf` axiom line whose names must already be in ``sig``.

    Raises ParseError for blank or comment lines, unknown tags, arity
    mismatches and names outside the signature.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        raise ParseError(1, f"not an axiom line: {line!r}")
    try:
        return _nf_axiom(line, 1, _nf_tags(sig.concepts.id_of, sig.roles.id_of))
    except KeyError as exc:
        raise ParseError(1, f"{exc.args[0]} (not in the theory signature)") from None


def format_axiom(sig: Signature, ax: NormalizedAxiom) -> str:
    """One `.nf` line for the axiom, names resolved against the signature."""
    tag = axiom_tag(ax)
    names = [
        (sig.concepts if kind == "c" else sig.roles).name_of(ident)
        for kind, ident in zip(_SLOT_KINDS[tag], axiom_slots(ax))
    ]
    return " ".join([tag] + names)


def serialize_theory(theory: Theory) -> str:
    """Deterministic `.nf` text: signature directives, then axioms in order.

    Top and Bot are implied and never emitted.  ``parse_theory`` on the result
    reproduces an equal Theory.
    """
    sig = theory.signature
    lines = [f"#concept {name}" for name in sig.concepts.names()[2:]]
    lines += [f"#role {name}" for name in sig.roles.names()]
    lines += [f"#individual {name}" for name in sig.individuals.names()]
    lines += [format_axiom(sig, ax) for ax in theory.axioms]
    return "\n".join(lines) + ("\n" if lines else "")


def load_theory(path) -> Theory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def save_theory(theory: Theory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_theory(theory))


def signature_stats(theory: Theory) -> dict[str, int]:
    """Axiom counts per variant plus signature sizes (duplicates already removed)."""
    counts = np.bincount(theory.table.codes, minlength=len(VARIANTS)).tolist()
    stats = dict(zip(VARIANTS, counts))
    stats["concepts"] = theory.n_concepts
    stats["roles"] = theory.n_roles
    stats["individuals"] = len(theory.signature.individuals)
    return stats
