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
``r o r' [= s`` gives ``A [= Es.E``) can feed itself, so it alone is iterated
to a fixpoint; one application of every other rule is already exhaustive
because the subsumption index is transitively closed.

The rule set is sound but deliberately incomplete.  Conjunctions are treated
as unordered: ``A n B`` and ``B n A`` name the same axiom, and pair slots are
canonicalized to (lower id, higher id).

Every question goes through one query path: premise indexes over the asserted
axioms (GCI1/GCI1_BOT by left conjunct, GCI2 by subject, GCI3/GCI3_BOT by
filler, each built on first use) feed a per-key memo of filler rows:

* pair {A, B}: every E with ``A n B [= E`` (Bot included when the pair is
  disjoint, in which case the row is every concept);
* subject A: role -> every B with ``A [= Er.B`` (chain-saturated when the
  theory has role chains);
* (r, A): every E with ``Er.A [= E`` (Bot included for ``Er.A [= Bot``).

``entails`` is one lookup in one row and ``entailed_fillers`` answers a whole
slot.  The two modes answer identically; ``materialized`` additionally
enumerates the closure (``counts``, ``iter_variant`` and the per-variant
``gci1`` .. ``gci3_bot`` views, built from the rows on first access) and is
refused above a |C|^3 cap.  Rows are built lazily and published only when
complete, so concurrent readers at worst build the same row twice.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .core import (
    AXIOM_TAGS,
    BOT_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    NormalizedAxiom,
    TOP_ID,
    Theory,
    concept_slots,
)
from .reasoner import RoleHierarchy, SubsumptionIndex


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
        self._slot_sets: dict[tuple[NormalizedAxiom, str], frozenset[int]] = {}

    def _unsat(self, a: int) -> bool:
        return BOT_ID in self.index.sup[a]

    def _check(self, *concepts: int, role: int | None = None) -> None:
        for a in concepts:
            if not 0 <= a < self.theory.n_concepts:
                raise KeyError(f"unknown concept id {a}")
        if role is not None and not 0 <= role < self.theory.n_roles:
            raise KeyError(f"unknown role id {role}")

    # -- premise indexes over asserted axioms ----------------------------------

    @cached_property
    def _gci1_by_left(self) -> dict[int, list[tuple[int, int]]]:
        """Asserted ``l n r [= s`` as l -> [(r, s)]; GCI1_BOT has s = Bot."""
        by_left = defaultdict(list)
        for ax in self.theory.axioms:
            if isinstance(ax, GCI1):
                by_left[ax.left].append((ax.right, ax.sup))
            elif isinstance(ax, GCI1Bot):
                by_left[ax.left].append((ax.right, BOT_ID))
        return by_left

    @cached_property
    def _gci2_by_subject(self) -> dict[int, list[tuple[int, int]]]:
        """Asserted ``x [= Eq.f`` as x -> [(q, f)]."""
        by_subject = defaultdict(list)
        for ax in self.theory.axioms_of(GCI2):
            by_subject[ax.sub].append((ax.role, ax.filler))
        return by_subject

    @cached_property
    def _gci3_by_filler(self) -> dict[int, list[tuple[int, int | None]]]:
        """Asserted ``Eq.f [= s`` as f -> [(q, s)]; GCI3_BOT has s = None (it
        yields Bot alone, unlike an asserted GCI3 with superclass Bot)."""
        by_filler = defaultdict(list)
        for ax in self.theory.axioms:
            if isinstance(ax, GCI3):
                by_filler[ax.filler].append((ax.role, ax.sup))
            elif isinstance(ax, GCI3Bot):
                by_filler[ax.filler].append((ax.role, None))
        return by_filler

    @cached_property
    def _everything(self) -> frozenset[int]:
        return frozenset(range(self.theory.n_concepts))

    # -- rows -----------------------------------------------------------------

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
                        dest = edges.setdefault(ch.sup, set())
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

    # -- queries ----------------------------------------------------------------

    def entails(self, ax: NormalizedAxiom) -> bool:
        if isinstance(ax, GCI0):
            return self.index.is_subclass(ax.sub, ax.sup)
        if isinstance(ax, GCI0Bot):
            self._check(ax.sub)
            return self._unsat(ax.sub)
        if isinstance(ax, GCI1):
            self._check(ax.left, ax.right, ax.sup)
            return ax.sup in self._pair_row(ax.left, ax.right)
        if isinstance(ax, GCI1Bot):
            self._check(ax.left, ax.right)
            return BOT_ID in self._pair_row(ax.left, ax.right)
        if isinstance(ax, GCI2):
            self._check(ax.sub, ax.filler, role=ax.role)
            if ax.filler != BOT_ID and self._unsat(ax.sub):
                return True  # Bot and unsatisfiable subjects reach every filler
            return ax.filler in self._subject_row(ax.sub).get(ax.role, ())
        if isinstance(ax, GCI3):
            self._check(ax.filler, ax.sup, role=ax.role)
            return ax.sup in self._existential_row(ax.role, ax.filler)
        if isinstance(ax, GCI3Bot):
            self._check(ax.filler, role=ax.role)
            return BOT_ID in self._existential_row(ax.role, ax.filler)
        raise ValueError(f"role-inclusion axioms are outside the closure's scope: {ax!r}")

    def entailed_fillers(self, ax: NormalizedAxiom, slot: str | None = None) -> frozenset[int]:
        """Every concept v such that ``ax`` with ``slot`` set to v is entailed.

        ``slot`` names a concept slot and defaults to the rightmost one (E for
        GCI1).  The rightmost slot of GCI0-GCI3 is one row; any other slot asks
        ``entails`` once per concept and is memoized per fixed remainder.
        Biased negative sampling and filtered ranking both use this query.
        """
        slots = concept_slots(ax)
        if not slots:
            raise ValueError(f"no corruptible concept slot on {ax!r}")
        slot = slot or slots[-1]
        if slot not in slots:
            raise ValueError(f"{slot!r} is not a concept slot of {ax!r}")
        if slot == slots[-1]:
            if isinstance(ax, GCI0):
                self._check(ax.sub)
                return self._everything if self._unsat(ax.sub) else self.index.sup[ax.sub]
            if isinstance(ax, GCI1):
                self._check(ax.left, ax.right)
                return self._pair_row(ax.left, ax.right)
            if isinstance(ax, GCI2):
                self._check(ax.sub, role=ax.role)
                return self._subject_row(ax.sub).get(ax.role, frozenset())
            if isinstance(ax, GCI3):
                self._check(ax.filler, role=ax.role)
                return self._existential_row(ax.role, ax.filler)
        key = (dataclasses.replace(ax, **{slot: -1}), slot)
        hit = self._slot_sets.get(key)
        if hit is None:
            hit = frozenset(
                v
                for v in range(self.theory.n_concepts)
                if self.entails(dataclasses.replace(ax, **{slot: v}))
            )
            self._slot_sets[key] = hit
        return hit

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
