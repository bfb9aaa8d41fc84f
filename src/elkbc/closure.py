"""Approximate deductive closure of a normalized theory, per normal form.

Two cooperating rule groups extend a classified theory:

* a one-shot expansion of every asserted GCI1/GCI2/GCI3/GCI1_BOT/GCI3_BOT
  axiom, instantiating its subclass/superclass premises from the subsumption
  index and its role premises from the role hierarchy (GCI0 and GCI0_BOT come
  verbatim from the reasoner);
* signature-level rules that hold for arbitrary concepts: anything conjoined
  with Bot (or an unsatisfiable concept) is below everything, ``A n E [= E'``
  whenever ``E [= E'``, every provably-disjoint pair is below everything,
  ``Bot [= Er.B`` and ``A [= Er.B`` for unsatisfiable ``A``, and
  ``Er.A [= Top``.

The existential composition rule (``A [= Er.B``, ``B [= Er'.E``,
``r o r' [= s`` gives ``A [= Es'.E`` for every super-role ``s'`` of ``s``,
``s`` included) can feed itself, so it alone is iterated to a fixpoint.  Every
other rule is applied once, to premises read from the transitively closed
subsumption index and role hierarchy.  That is not exhaustive: ``A n B [= Z``
and an asserted ``Z n A [= W`` entail ``A n B [= W``, which it misses.

The rule set is sound but deliberately incomplete.  Conjunctions are treated
as unordered: ``A n B`` and ``B n A`` name the same axiom, and pair slots are
canonicalized to (lower id, higher id).

Every question goes through one query path: premise indexes over the asserted
axioms (GCI1/GCI1_BOT by left conjunct, GCI2 by subject, GCI3/GCI3_BOT by
filler, each built on first use from the id columns of ``Theory.table``) feed
a per-key memo of filler rows:

* concept A: every E with ``A [= E`` (every concept when A is unsatisfiable);
* pair {A, B}: every E with ``A n B [= E`` (Bot included when the pair is
  disjoint, in which case the row is every concept);
* subject A: role -> every B with ``A [= Er.B`` (chain-saturated when the
  theory has role chains);
* (r, A): every E with ``Er.A [= E`` (Bot included for ``Er.A [= Bot``).

One query table maps each GCI variant to its key (its leading id columns), its
row and its answer column, which is Bot for the three ``_BOT`` variants.
``entails_ids(code, ids)`` asks whether the answer is in the row of the key;
``entailed_fillers_ids(code, ids, col)`` is that row when ``col`` is the answer
column and otherwise asks every concept once, memoized per fixed remainder.
The id queries check nothing (the sampler asks them with ids it holds);
``entails`` and ``entailed_fillers`` take a dataclass, check its ids
(``KeyError``) and ask them.

The two modes answer identically; ``materialized`` additionally
enumerates the closure (``counts``, ``iter_variant`` and the per-variant
``gci1`` .. ``gci3_bot`` views, built from the rows on first access) and is
refused above a |C|^3 cap.  Rows are built lazily and published only when
complete, so concurrent readers at worst build the same row twice.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .core import (
    _CODE_OF,
    _SLOT_KINDS,
    AXIOM_TAGS,
    BOT_ID,
    GCI0,
    GCI0Bot,
    SLOT_NAMES,
    TOP_ID,
    VARIANTS,
    NormalizedAxiom,
    Theory,
)
from .reasoner import RoleHierarchy, SubsumptionIndex

_GCI2 = VARIANTS.index("GCI2")


class ClosureCapError(RuntimeError):
    """Materialization refused: the GCI1 bound |C|^3 exceeds the cap."""


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
    def _gci1_by_left(self) -> dict[int, list[tuple[int, int]]]:
        """Asserted ``l n r [= s`` as l -> [(r, s)]; GCI1_BOT has s = Bot."""
        by_left = defaultdict(list)
        for left, right, sup in self.theory.table.ids_of("GCI1", "GCI1_BOT"):
            by_left[left].append((right, BOT_ID if sup < 0 else sup))
        return by_left

    @cached_property
    def _gci2_by_subject(self) -> dict[int, list[tuple[int, int]]]:
        """Asserted ``x [= Eq.f`` as x -> [(q, f)]."""
        by_subject = defaultdict(list)
        for sub, role, filler in self.theory.table.ids_of("GCI2"):
            by_subject[sub].append((role, filler))
        return by_subject

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

    def _sup_row(self, a: int) -> frozenset[int]:
        return self._everything if self._unsat(a) else self.index.sup[a]

    def _pair_row(self, a: int, b: int) -> frozenset[int]:
        key = _canon(a, b)
        row = self._pairs.get(key)
        if row is None:
            sup = self.index.sup
            found = set(sup[a]) | sup[b]
            if BOT_ID not in found:
                for x, y in ((sup[a], sup[b]), (sup[b], sup[a])):
                    for left in x:
                        for right, s in self._gci1_by_left.get(left, ()):
                            if right in y:
                                found |= sup[s]
            row = self._everything if BOT_ID in found else frozenset(found)
            self._pairs[key] = row
        return row

    def _subject_row(self, a: int) -> dict[int, frozenset[int]]:
        row = self._subjects.get(a)
        if row is None:
            if self.hierarchy.chains:
                return self._chain_edges(a)
            row = {r: frozenset(fs) for r, fs in self._base_gci2_edges(a).items()}
            self._subjects[a] = row
        return row

    def _role_row(self, a: int, r: int) -> frozenset[int]:
        return self._subject_row(a).get(r, frozenset())

    def _existential_row(self, r: int, a: int) -> frozenset[int]:
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
            self._existentials[(r, a)] = row
        return row

    def _base_gci2_edges(self, a: int) -> dict[int, set[int]]:
        """Non-chain entailed (r -> fillers) for subject ``a``."""
        sup = self.index.sup
        rsup = self.hierarchy.rsup
        edges: dict[int, set[int]] = defaultdict(set)
        for x in sup[a]:
            for q, f in self._gci2_by_subject.get(x, ()):
                fillers = sup[f]
                for r in rsup[q]:
                    edges[r].update(fillers)
        if self._unsat(a):
            non_bot = self._everything - {BOT_ID}
            for r in range(self.theory.n_roles):
                edges[r].update(non_bot)
        return edges

    def _chain_edges(self, a: int) -> dict[int, frozenset[int]]:
        """Chain-saturated GCI2 edges from ``a``, expanded over every subject
        the saturation can reach (fillers become composable subjects); every
        subject of the saturated universe gets its row published."""
        universe: dict[int, dict[int, set[int]]] = {}

        def expand(start: int) -> None:
            frontier = [start]
            while frontier:
                x = frontier.pop()
                if x in universe:
                    continue
                universe[x] = self._base_gci2_edges(x)
                frontier.extend(
                    m for fillers in universe[x].values() for m in fillers if m not in universe
                )

        expand(a)
        changed = True
        while changed:
            changed = False
            for ch in self.hierarchy.chains:
                for x in list(universe):
                    edges = universe[x]
                    for m in list(edges.get(ch.first, ())):
                        if m not in universe:
                            expand(m)
                        targets = universe[m].get(ch.second, ())
                        if not targets:
                            continue
                        for s in self.hierarchy.rsup[ch.sup]:
                            dest = edges.setdefault(s, set())
                            before = len(dest)
                            dest.update(targets)
                            if len(dest) != before:
                                changed = True
            for x in list(universe):
                for fillers in universe[x].values():
                    for m in list(fillers):
                        if m not in universe:
                            expand(m)
                            changed = True
        for x, edges in universe.items():
            if x not in self._subjects:
                self._subjects[x] = {r: frozenset(fs) for r, fs in edges.items()}
        return self._subjects[a]

    #: GCI variant code -> (key columns, row of the key, answer column); the
    #: key is the leading id columns, and answer column None asks for Bot
    _QUERIES = {
        VARIANTS.index(tag): query
        for tag, query in {
            "GCI0": (1, _sup_row, 1),
            "GCI1": (2, _pair_row, 2),
            "GCI2": (2, _role_row, 2),
            "GCI3": (2, _existential_row, 2),
            "GCI0_BOT": (1, _sup_row, None),
            "GCI1_BOT": (2, _pair_row, None),
            "GCI3_BOT": (2, _existential_row, None),
        }.items()
    }

    # -- queries ----------------------------------------------------------------

    def entails_ids(self, code: int, ids: Sequence[int]) -> bool:
        """Whether the GCI with variant code ``code`` and the id row ``ids``
        (`.nf` slot order) is entailed; the ids are not checked."""
        keys, row, answer = self._QUERIES[code]
        value = BOT_ID if answer is None else ids[answer]
        if code == _GCI2 and value != BOT_ID and self._unsat(ids[0]):
            return True  # Bot and unsatisfiable subjects reach every filler
        return value in row(self, *ids[:keys])

    def entailed_fillers_ids(self, code: int, ids: Sequence[int], col: int) -> frozenset[int]:
        """Every concept v such that the id row with ``ids[col] = v`` is
        entailed; the ids are not checked and ``ids[col]`` is not read."""
        keys, row, answer = self._QUERIES[code]
        if col == answer:
            return row(self, *ids[:keys])
        probe = list(ids)
        probe[col] = -1
        key = (code, col, *probe)
        hit = self._slot_sets.get(key)
        if hit is None:
            found = []
            for v in range(self.theory.n_concepts):
                probe[col] = v
                if self.entails_ids(code, probe):
                    found.append(v)
            hit = frozenset(found)
            self._slot_sets[key] = hit
        return hit

    def answer_column(self, code: int) -> int | None:
        """The column whose fillers ``entailed_fillers_ids`` answers with one
        row for GCI variant ``code``: its rightmost concept, None for the
        ``_BOT`` variants (their answer is Bot)."""
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

    def entailed_fillers(self, ax: NormalizedAxiom, slot: str | None = None) -> frozenset[int]:
        """Every concept v such that ``ax`` with ``slot`` set to v is entailed.

        ``slot`` names a concept slot and defaults to the rightmost one (E for
        GCI1).  The rightmost slot of GCI0-GCI3 is one row; any other slot asks
        every concept once and is memoized per fixed remainder.  Biased
        negative sampling and filtered ranking both use this query.
        """
        code, ids = self._ids(ax)
        names, kinds = SLOT_NAMES[VARIANTS[code]], _SLOT_KINDS[VARIANTS[code]]
        slots = [name for name, kind in zip(names, kinds) if kind == "c"]
        slot = slot or slots[-1]
        if slot not in slots:
            raise ValueError(f"{slot!r} is not a concept slot of {ax!r}")
        return self.entailed_fillers_ids(code, ids, names.index(slot))

    # -- enumeration (materialized mode) ---------------------------------------

    def _enumerable(self) -> None:
        if not self.materialized:
            raise ValueError("enumeration requires a materialized closure")

    def _all_pair_rows(self) -> dict[tuple[int, int], frozenset[int]]:
        self._enumerable()
        n_c = self.theory.n_concepts
        return {(a, b): self._pair_row(a, b) for a in range(n_c) for b in range(a, n_c)}

    def _all_existential_rows(self) -> dict[tuple[int, int], frozenset[int]]:
        self._enumerable()
        return {
            (r, a): self._existential_row(r, a)
            for r in range(self.theory.n_roles)
            for a in range(self.theory.n_concepts)
        }

    @cached_property
    def gci1(self) -> dict[tuple[int, int], frozenset[int]]:
        rows = self._all_pair_rows().items()
        return {pair: rest for pair, row in rows if (rest := row - {BOT_ID})}

    @cached_property
    def gci1_bot(self) -> set[tuple[int, int]]:
        return {pair for pair, row in self._all_pair_rows().items() if BOT_ID in row}

    @cached_property
    def gci2(self) -> dict[tuple[int, int], frozenset[int]]:
        self._enumerable()
        return {
            (a, r): fillers
            for a in range(self.theory.n_concepts)
            for r, fillers in self._subject_row(a).items()
            if fillers
        }

    @cached_property
    def gci3(self) -> dict[tuple[int, int], frozenset[int]]:
        rows = self._all_existential_rows().items()
        return {key: rest for key, row in rows if (rest := row - {BOT_ID})}

    @cached_property
    def gci3_bot(self) -> set[tuple[int, int]]:
        return {key for key, row in self._all_existential_rows().items() if BOT_ID in row}

    def counts(self) -> dict[str, int]:
        """Materialized axiom count per variant (GCI0 family from the index)."""
        self._enumerable()
        return {
            "GCI0": sum(len(s) for s in self.index.sup),
            "GCI1": sum(len(s) for s in self.gci1.values()),
            "GCI2": sum(len(s) for s in self.gci2.values()),
            "GCI3": sum(len(s) for s in self.gci3.values()),
            "GCI0_BOT": sum(1 for a in range(self.theory.n_concepts) if self._unsat(a)),
            "GCI1_BOT": len(self.gci1_bot),
            "GCI3_BOT": len(self.gci3_bot),
        }

    def iter_variant(self, tag: str):
        """Materialized axioms of one variant, id-sorted, pairs canonical."""
        self._enumerable()
        if tag == "GCI0":
            for a in range(self.theory.n_concepts):
                for b in sorted(self.index.sup[a]):
                    yield GCI0(a, b)
        elif tag == "GCI0_BOT":
            for a in range(self.theory.n_concepts):
                if self._unsat(a):
                    yield GCI0Bot(a)
        elif tag in ("GCI1", "GCI2", "GCI3"):
            view = getattr(self, tag.lower())
            for key in sorted(view):
                for v in sorted(view[key]):
                    yield AXIOM_TAGS[tag](*key, v)
        elif tag in ("GCI1_BOT", "GCI3_BOT"):
            for key in sorted(getattr(self, tag.lower())):
                yield AXIOM_TAGS[tag](*key)
        else:
            raise ValueError(f"unknown variant {tag!r}")


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
