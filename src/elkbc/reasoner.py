"""Saturation-based EL++ classification.

``classify`` computes the least fixpoint of the standard completion rules over
a normalized theory and returns every entailed atomic subsumption (the
subsumption index S), the reflexive-transitive role hierarchy, and the role
link relation R accumulated during saturation:

    CR0  A in S(A); Top in S(A); every X in S(Bot)
    CR1  A' in S(A), (A' [= B) asserted            =>  B in S(A)
    CR2  A1, A2 in S(A), (A1 n A2 [= B) asserted   =>  B in S(A)
    CR3  A' in S(A), (A' [= Er.B) asserted         =>  (A, B) in R(r)
    CR4  (A, B) in R(r), B' in S(B), (Er.B' [= E)  =>  E in S(A)
    CR5  (A, B) in R(r), Bot in S(B)               =>  Bot in S(A)
    CR6  (A, B) in R(r), r [= s                    =>  (A, B) in R(s)
    CR7  (A, B) in R(r1), (B, E) in R(r2), (r1 o r2 [= s)  =>  (A, E) in R(s)

BOT variants participate as their Bot-target counterparts.  Unsatisfiable
concepts are recorded as ``Bot in S(A)`` only; ``SubsumptionIndex.is_subclass``
consults Bot-membership first instead of eagerly inflating S(A).

The engine is worklist-driven with per-slot premise indexes so that large
biomedical-ontology signatures classify in seconds; a deliberately naive
re-scan-everything fixpoint lives in the test suite as the independent oracle.
Saturation holds S as one set per concept and R as each concept's successor
rows, plus predecessor rows for CR4, CR5 and CR7.  At the end the predecessor
rows are dropped and S and the successor rows are frozen in place, one row at
a time, so each relation is held once: ``SubsumptionIndex`` and
``RoleLinkIndex`` share the one tuple of successor rows, which the closure
reads its GCI2 rows from, and ``RoleLinkIndex.pairs(r)`` builds R(r) only when
asked.  ``classify`` is sequential and deterministic; its results
are not modified after it returns and are safe for concurrent readers.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .core import BOT_ID, TOP_ID, Theory


@dataclass(frozen=True)
class SubsumptionIndex:
    """All entailed superclasses per concept (reflexive, transitively closed),
    and the saturation's link rows: ``successors[a][r]`` is every B with
    (a, B) in R(r), the row ``RoleLinkIndex`` holds too."""

    sup: tuple[frozenset[int], ...]
    successors: tuple[dict[int, frozenset[int]], ...]

    def is_subclass(self, a: int, b: int) -> bool:
        """True when a [= b is entailed; unsatisfiable a is below everything."""
        self._check(a)
        self._check(b)
        return BOT_ID in self.sup[a] or b in self.sup[a]

    def _check(self, ident: int) -> None:
        if not 0 <= ident < len(self.sup):
            raise KeyError(f"unknown concept id {ident}")


@dataclass(frozen=True)
class RoleHierarchy:
    """Reflexive-transitive closure of simple role inclusions; role chains
    act through the link relation R (CR7)."""

    rsup: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class RoleLinkIndex:
    """The role-link relation R of the saturation, held as each concept's
    successor rows: ``successors[a][r]`` is every B with (a, B) in R(r)."""

    successors: tuple[dict[int, frozenset[int]], ...]
    n_roles: int

    def pairs(self, r: int) -> frozenset[tuple[int, int]]:
        """R(r) as concept pairs, built on each call."""
        if not 0 <= r < self.n_roles:
            raise KeyError(f"unknown role id {r}")
        return frozenset((a, b) for a, row in enumerate(self.successors) for b in row.get(r, ()))


def _role_closure(n_roles: int, ri0) -> list[set[int]]:
    direct = defaultdict(set)
    for sub, sup, _ in ri0:
        direct[sub].add(sup)
    rsup = []
    for r in range(n_roles):
        seen = {r}
        stack = [r]
        while stack:
            q = stack.pop()
            for s in direct.get(q, ()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        rsup.append(seen)
    return rsup


def classify(theory: Theory) -> tuple[SubsumptionIndex, RoleHierarchy, RoleLinkIndex]:
    n_c = theory.n_concepts
    n_r = theory.n_roles

    # premise indexes over asserted axioms (BOT variants, -1 in the table's
    # last slot, folded in with target Bot)
    table = theory.table
    gci0_by_sub: dict[int, list[int]] = defaultdict(list)
    for a, b, _ in table.ids_of("GCI0", "GCI0_BOT"):
        gci0_by_sub[a].append(BOT_ID if b < 0 else b)
    gci1_by_conjunct: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, b, e in table.ids_of("GCI1", "GCI1_BOT"):
        gci1_by_conjunct[a].append((b, BOT_ID if e < 0 else e))
        gci1_by_conjunct[b].append((a, BOT_ID if e < 0 else e))
    gci2_by_sub: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, r, b in table.ids_of("GCI2"):
        gci2_by_sub[a].append((r, b))
    gci3_by_role_filler: dict[tuple[int, int], list[int]] = defaultdict(list)
    for r, a, e in table.ids_of("GCI3", "GCI3_BOT"):
        gci3_by_role_filler[(r, a)].append(BOT_ID if e < 0 else e)

    rsup = _role_closure(n_r, table.ids_of("RI0"))
    chain_by_first: dict[int, list[tuple[int, int]]] = defaultdict(list)
    chain_by_second: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for first, second, s in table.ids_of("RI1"):
        chain_by_first[first].append((second, s))
        chain_by_second[second].append((first, s))

    sup: list[set[int]] = [set() for _ in range(n_c)]
    out_by_role: list[dict[int, set[int]]] = [defaultdict(set) for _ in range(n_c)]
    in_by_role: list[dict[int, set[int]]] = [defaultdict(set) for _ in range(n_c)]

    work: deque = deque()
    for a in range(n_c):
        work.append((a, a))
        work.append((a, TOP_ID))
    for x in range(n_c):
        work.append((BOT_ID, x))
    edge_work: deque = deque()

    def push_s(a: int, x: int) -> None:
        if x not in sup[a]:
            work.append((a, x))

    def push_e(a: int, r: int, b: int) -> None:
        if b not in out_by_role[a].get(r, ()):
            edge_work.append((a, r, b))

    def process_s(a: int, x: int) -> None:
        if x in sup[a]:
            return
        sup[a].add(x)
        for b in gci0_by_sub.get(x, ()):
            push_s(a, b)
        for other, b in gci1_by_conjunct.get(x, ()):
            if other in sup[a]:
                push_s(a, b)
        for r, b in gci2_by_sub.get(x, ()):
            push_e(a, r, b)
        # x newly subsumes a: re-examine edges into a as CR4/CR5 premises
        for r, preds in in_by_role[a].items():
            for e in gci3_by_role_filler.get((r, x), ()):
                for p in preds:
                    push_s(p, e)
        if x == BOT_ID:
            for preds in in_by_role[a].values():
                for p in preds:
                    push_s(p, BOT_ID)

    def process_e(a: int, r: int, b: int) -> None:
        successors = out_by_role[a][r]
        if b in successors:
            return
        successors.add(b)
        in_by_role[b][r].add(a)
        for x in sup[b]:
            for e in gci3_by_role_filler.get((r, x), ()):
                push_s(a, e)
        if BOT_ID in sup[b]:
            push_s(a, BOT_ID)
        for s in rsup[r]:
            if s != r:
                push_e(a, s, b)
        for r2, s in chain_by_first.get(r, ()):
            for e in out_by_role[b].get(r2, ()):
                push_e(a, s, e)
        for r1, s in chain_by_second.get(r, ()):
            for p in in_by_role[a].get(r1, ()):
                push_e(p, s, b)

    while work or edge_work:
        while work:
            a, x = work.popleft()
            process_s(a, x)
        while edge_work:
            a, r, b = edge_work.popleft()
            process_e(a, r, b)

    in_by_role.clear()  # saturation's premises only
    for a in range(n_c):
        sup[a] = frozenset(sup[a])
        out_by_role[a] = {r: frozenset(bs) for r, bs in out_by_role[a].items()}

    index = SubsumptionIndex(sup=tuple(sup), successors=tuple(out_by_role))
    hierarchy = RoleHierarchy(rsup=tuple(frozenset(s) for s in rsup))
    links = RoleLinkIndex(successors=index.successors, n_roles=n_r)
    return index, hierarchy, links


def dump_subsumptions(theory: Theory, index: SubsumptionIndex) -> str:
    """One ``A <tab> B`` line per entailed atomic subsumption, id-sorted."""
    names = theory.signature.concepts
    lines = []
    for a in range(theory.n_concepts):
        for b in sorted(index.sup[a]):
            lines.append(f"{names.name_of(a)}\t{names.name_of(b)}")
    return "\n".join(lines) + ("\n" if lines else "")
