"""Approximate deductive closure of a normalized theory, per normal form.

Three rule groups extend a classified theory:

* a one-shot expansion of every asserted GCI1/GCI3/GCI1_BOT/GCI3_BOT axiom,
  instantiating its subclass/superclass premises from the subsumption index
  and its role premises from the role hierarchy (GCI0 and GCI0_BOT come
  verbatim from the reasoner);
* GCI2 read from the saturation's link rows: a link (A, B) in R(r), which
  the reasoner derives with role inclusions and chains applied and whose row
  for A it builds on each read (the own links of A's superclasses plus A's
  per-concept links), gives ``A [= Er.B'`` for every ``B'`` above ``B``;
* signature-level rules that hold for arbitrary concepts: anything conjoined
  with Bot (or an unsatisfiable concept) is below everything, ``A n E [= E'``
  whenever ``E [= E'``, every provably-disjoint pair is below everything,
  an unsatisfiable ``A`` (Bot too) has ``A [= Er.B`` for every role and every
  ``B``, Bot included, and ``Er.A [= Top``.

The conjunction rule (an asserted ``L n R [= S`` with ``L`` and ``R`` both
above ``A n B`` puts ``S`` above it) can feed itself, so it is iterated to a
fixpoint: ``A n B [= Z`` and an asserted ``Z n A [= W`` give ``A n B [= W``.
Every other rule is applied once, to premises read from the transitively
closed subsumption index and role hierarchy.

The rule set is sound but deliberately incomplete.  Conjunctions are treated
as unordered: ``A n B`` and ``B n A`` name the same axiom, and pair slots are
canonicalized to (lower id, higher id).

Every question goes through one query path: premise indexes over the asserted
axioms (GCI1/GCI1_BOT by conjunct, GCI3/GCI3_BOT by filler, each built on
first use from the id columns of ``Theory.table``) and the link rows feed the
filler rows of a key:

* concept A: every E with ``A [= E`` (every concept when A is unsatisfiable);
* pair {A, B}: every E with ``A n B [= E`` (Bot included when the pair is
  disjoint, in which case the row is every concept);
* subject A: role -> every B with ``A [= Er.B`` (every concept for every
  role when A is unsatisfiable);
* (r, A): every E with ``Er.A [= E`` (Bot included for ``Er.A [= Bot``).

One query table maps each GCI variant to its key, its row and its answer
column.  The answer is the rightmost concept (``core.RIGHTMOST_COL``) and the
key the id columns before it; a ``_BOT`` variant's key runs through that
concept and its answer is Bot.  ``entails_ids(code, ids)`` asks whether
the answer is in the row of the key.  ``entailed_fillers_ids(code, ids)``
answers the rightmost concept: it is the row of the key for GCI0-GCI3; for a
``_BOT`` form, whose rightmost concept is part of the key, it asks
``entails_ids`` once per concept and memoizes the answer per (variant,
remainder).

Each row lives in one memo, under a key that a later query can ask again:
the pair, subject and (r, A) rows of GCI1-GCI3 queries, and the ``_BOT``
filler answers.  A ``_BOT`` point query stores nothing: its key holds the
probed concept, a sampler's random draw, so its row is built and dropped.
Concept rows are the index's own.  The id queries check nothing (the
sampler asks them with ids it holds); ``entails`` and ``entailed_fillers``
take a dataclass, check its ids (``KeyError``) and ask them.

The two modes answer identically; ``materialized`` additionally
enumerates the closure (``iter_variant``) and is refused above a |C|^3 cap.
Enumeration walks every key of a variant in id order and reads a row
memoized by an earlier query, or builds it and drops it: a walk keeps no
pair or existential row, only the |C| subject rows that queries ask again.
Rows are built lazily and published only when complete, so concurrent
readers at worst build the same row twice.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .core import (
    _CODE_OF,
    _SLOT_KINDS,
    AXIOM_TAGS,
    BOT_ID,
    RIGHTMOST_COL,
    SLOT_NAMES,
    TOP_ID,
    VARIANTS,
    NormalizedAxiom,
    Theory,
)
from .reasoner import RoleHierarchy, SubsumptionIndex, gci1_by_conjunct


class ClosureCapError(RuntimeError):
    """Materialization refused: the GCI1 bound |C|^3 exceeds the cap."""


#: the variants whose Bot answers their ``_BOT`` form lists instead
_BOT_APART = ("GCI1", "GCI3")


def _canon(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(eq=False)
class DeductiveClosure:
    theory: Theory
    index: SubsumptionIndex
    hierarchy: RoleHierarchy
    materialized: bool

    def __post_init__(self):
        self._pairs: dict[tuple[int, int], frozenset[int]] = {}
        self._subjects: dict[int, dict[int, frozenset[int]]] = {}
        self._existentials: dict[tuple[int, int], frozenset[int]] = {}
        self._slot_sets: dict[tuple[int, ...], frozenset[int]] = {}

    def _unsat(self, a: int) -> bool:
        return BOT_ID in self.index.sup[a]

    # -- premise indexes over asserted axioms ----------------------------------

    @cached_property
    def _gci1_by_conjunct(self) -> dict[int, list[tuple[int, int]]]:
        return gci1_by_conjunct(self.theory.table)

    @cached_property
    def _gci3_by_filler(self) -> dict[int, list[tuple[int, int | None]]]:
        """Asserted ``Eq.f [= s`` as f -> [(q, s)]; GCI3_BOT has s = None (it
        yields Bot alone, unlike an asserted GCI3 with superclass Bot)."""
        by_filler = defaultdict(list)
        for role, filler, sup in self.theory.table.ids_of("GCI3", "GCI3_BOT"):
            by_filler[filler].append((role, None if sup < 0 else sup))
        return by_filler

    @cached_property
    def _everything(self) -> frozenset[int]:
        return frozenset(range(self.theory.n_concepts))

    # -- rows -----------------------------------------------------------------

    # a row built with ``store=False`` is not memoized (``_sup_row`` has no memo)

    def _sup_row(self, a: int, store: bool = True) -> frozenset[int]:
        return self._everything if self._unsat(a) else self.index.sup[a]

    def _pair_row(self, a: int, b: int, store: bool = True) -> frozenset[int]:
        key = _canon(a, b)
        row = self._pairs.get(key)
        if row is None:
            # every E with A n B [= E, to a fixpoint: an asserted l n r [= s
            # whose conjuncts are both in the row adds s's superclasses; only
            # the members that are conjuncts of an asserted GCI1 are visited
            sup, conjuncts = self.index.sup, self._gci1_by_conjunct
            found = set(sup[a]) | sup[b]
            todo = list(found & conjuncts.keys())
            while todo and BOT_ID not in found:
                for other, s in conjuncts[todo.pop()]:
                    if other in found:
                        new = sup[s] - found
                        found |= new
                        todo.extend(new & conjuncts.keys())
            row = self._everything if BOT_ID in found else frozenset(found)
            if store:
                self._pairs[key] = row
        return row

    def _subject_row(self, a: int) -> dict[int, frozenset[int]]:
        row = self._subjects.get(a)
        if row is None:
            # a link (a, b) in R(r) gives a [= Er.b' for every b' above b
            if self._unsat(a):
                row = dict.fromkeys(range(self.theory.n_roles), self._everything)
            else:
                sup = self.index.sup
                row = {
                    r: frozenset().union(*(sup[b] for b in targets))
                    for r, targets in self.index.successors[a].items()
                }
            self._subjects[a] = row
        return row

    def _role_row(self, a: int, r: int) -> frozenset[int]:
        return self._subject_row(a).get(r, frozenset())

    def _existential_row(self, r: int, a: int, store: bool = True) -> frozenset[int]:
        row = self._existentials.get((r, a))
        if row is None:
            sup = self.index.sup
            supers = self.hierarchy.rsup[r]
            found = set() if a == BOT_ID else {TOP_ID}
            for f in sup[a]:
                for q, s in self._gci3_by_filler.get(f, ()):
                    if q in supers:
                        if s is None:
                            found.add(BOT_ID)
                        else:
                            found |= sup[s]
            row = frozenset(found)
            if store:
                self._existentials[(r, a)] = row
        return row

    #: GCI variant code -> (key columns, row of the key, answer column); the
    #: key is the id columns before the rightmost concept, and the answer
    #: column that concept; a _BOT form's key runs through it, and its answer
    #: (None) is Bot
    _QUERIES = {
        VARIANTS.index(tag): (col + bot, row, None if bot else col)
        for tag, row in (
            ("GCI0", _sup_row),
            ("GCI1", _pair_row),
            ("GCI2", _role_row),
            ("GCI3", _existential_row),
            ("GCI0_BOT", _sup_row),
            ("GCI1_BOT", _pair_row),
            ("GCI3_BOT", _existential_row),
        )
        for col, bot in [(int(RIGHTMOST_COL[VARIANTS.index(tag)]), tag.endswith("_BOT"))]
    }

    # -- queries ----------------------------------------------------------------

    def entails_ids(self, code: int, ids: Sequence[int]) -> bool:
        """Whether the GCI with variant code ``code`` and the id row ``ids``
        (`.nf` slot order) is entailed; the ids are not checked."""
        keys, row, answer = self._QUERIES[code]
        if answer is None:  # a _BOT form: its key holds the probed concept
            return BOT_ID in row(self, *ids[:keys], store=False)
        return ids[answer] in row(self, *ids[:keys])

    def entailed_fillers_ids(self, code: int, ids: Sequence[int]) -> frozenset[int]:
        """Every concept v such that the id row with its rightmost concept set
        to v is entailed; the ids are not checked and that concept is not read."""
        keys, row, answer = self._QUERIES[code]
        if answer is not None:
            return row(self, *ids[:keys])
        # a _BOT form: its rightmost concept is the key's last column, so
        # every concept is asked once
        fixed = tuple(ids[: keys - 1])
        hit = self._slot_sets.get((code, *fixed))
        if hit is None:
            n_c = self.theory.n_concepts
            hit = frozenset(v for v in range(n_c) if self.entails_ids(code, (*fixed, v)))
            self._slot_sets[(code, *fixed)] = hit
        return hit

    def answer_column(self, code: int) -> int | None:
        """The answer column of GCI variant ``code``: its rightmost concept,
        whose fillers ``entailed_fillers_ids`` answers with one row, or None
        for the ``_BOT`` variants (their answer is Bot)."""
        return self._QUERIES[code][2]

    def _ids(self, ax: NormalizedAxiom) -> tuple[int, list[int]]:
        """Variant code and id row (-1 padded, as in ``Theory.table``) of a
        caller's GCI, every id checked against the theory."""
        code = _CODE_OF.get(type(ax))
        if code not in self._QUERIES:
            raise ValueError(f"role-inclusion axioms are outside the closure's scope: {ax!r}")
        names, kinds = SLOT_NAMES[VARIANTS[code]], _SLOT_KINDS[VARIANTS[code]]
        ids = [getattr(ax, name) for name in names]
        for kind, i in zip(kinds, ids):
            if not 0 <= i < (self.theory.n_concepts if kind == "c" else self.theory.n_roles):
                raise KeyError(f"unknown {'concept' if kind == 'c' else 'role'} id {i}")
        return code, ids + [-1] * (3 - len(ids))

    def entails(self, ax: NormalizedAxiom) -> bool:
        return self.entails_ids(*self._ids(ax))

    def entailed_fillers(self, ax: NormalizedAxiom) -> frozenset[int]:
        """Every concept v such that ``ax`` with its rightmost concept set to
        v is entailed (``entailed_fillers_ids``).  Biased negative sampling
        and filtered ranking both use this query."""
        return self.entailed_fillers_ids(*self._ids(ax))

    # -- enumeration (materialized mode) ---------------------------------------

    def _key_rows(self, tag: str) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
        """Every (key, row) of variant ``tag`` in id order, pairs canonical;
        a pair or existential row not yet memoized is built and not stored,
        a concept's row is its classified S(a)."""
        if not self.materialized:
            raise ValueError("enumeration requires a materialized closure")
        concepts, roles = range(self.theory.n_concepts), range(self.theory.n_roles)
        if tag in ("GCI0", "GCI0_BOT"):
            return (((a,), self.index.sup[a]) for a in concepts)
        if tag in ("GCI1", "GCI1_BOT"):
            return (
                ((a, b), self._pair_row(a, b, store=False)) for a in concepts for b in concepts[a:]
            )
        if tag == "GCI2":
            return (
                ((a, r), row) for a in concepts for r, row in sorted(self._subject_row(a).items())
            )
        if tag in ("GCI3", "GCI3_BOT"):
            return (
                ((r, a), self._existential_row(r, a, store=False)) for r in roles for a in concepts
            )
        raise ValueError(f"unknown variant {tag!r}")

    def iter_variant(self, tag: str) -> Iterator[NormalizedAxiom]:
        """Materialized axioms of one variant, id-sorted, pairs canonical.
        The walk stores no pair or existential row.

        A ``_BOT`` form lists each key whose row holds Bot; every other
        variant one axiom per member of each row.  GCI1 and GCI3 leave Bot
        out, which their ``_BOT`` forms list; GCI0 and GCI2 keep it.  GCI0
        lists S(a) as classified, so for an unsatisfiable ``a`` it lists
        fewer superclasses than ``entails`` grants (every concept)."""
        rows, axiom = self._key_rows(tag), AXIOM_TAGS[tag]
        if tag.endswith("_BOT"):
            yield from (axiom(*key) for key, row in rows if BOT_ID in row)
        else:
            drop = BOT_ID if tag in _BOT_APART else None
            for key, row in rows:
                yield from (axiom(*key, v) for v in sorted(row) if v != drop)


def compute_closure(
    theory: Theory,
    index: SubsumptionIndex,
    hierarchy: RoleHierarchy,
    mode: str = "materialized",
    materialize_cap: int = 10**8,
) -> DeductiveClosure:
    """The per-variant closure of a classified theory.

    ``mode`` is ``"materialized"`` (queries plus enumeration; raises
    ClosureCapError when |C|^3 exceeds ``materialize_cap``) or ``"oracle"``
    (queries only).  Rows are built on demand in both modes.
    """
    if mode not in ("materialized", "oracle"):
        raise ValueError(f"unknown closure mode {mode!r}")
    n_c = theory.n_concepts
    if mode == "materialized" and n_c**3 > materialize_cap:
        raise ClosureCapError(
            f"|C|^3 = {n_c**3} exceeds the materialization cap {materialize_cap}; "
            "use oracle mode"
        )
    return DeductiveClosure(theory, index, hierarchy, materialized=mode == "materialized")
