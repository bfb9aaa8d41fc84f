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

The engine works on whole superclass rows; a deliberately naive
re-scan-everything fixpoint lives in the test suite as the independent oracle.

* Told closure.  One iterative Tarjan pass over the CR1 graph (GCI0 and
  GCI0_BOT edges, plus CR0's edge from every concept to Top) emits its
  strongly connected components sinks first.  Each component gets one
  frozenset, the reflexive-transitive CR1 closure T of its members, and that
  row is every member's starting S.  The same routine, without the edge to
  Top, closes the RI0 graph into the role hierarchy.
* Rows by key intersection.  CR2 and CR3 fire only on the members a row
  gains that are keys of the GCI1 and GCI2 premise indexes, and CR4 reads
  ``S(b) & F3[r]``, F3[r] being the fillers of role r's GCI3s.  A concept
  that gains x takes ``S(x) - S(a)`` in one set operation: S(x) holds T[x]
  from the start and only sound members after, because x in S(a) implies
  S(x) within S(a).
* Bot.  S(Bot) is every concept from the start, which is the one exception
  to that implication: a concept that gains Bot takes Bot's told row T[Bot]
  instead, so an unsatisfiable concept records Bot (and what Bot is told to
  be below), not every concept.
* Held once.  A row no rule beyond CR0/CR1 grows stays its component's shared
  frozenset; a row that grows is copied on its first write.  R is held as
  each concept's successor rows, queued and added a list of targets at a
  time, with predecessor rows (for CR4, CR5 and CR7) only for concepts that
  have incoming links.

At the end the predecessor rows are dropped and the grown rows and the
successor rows are frozen in place, one row at a time, so each relation is
held once: ``SubsumptionIndex`` and ``RoleLinkIndex`` share the one tuple of
successor rows, which the closure reads its GCI2 rows from, and
``RoleLinkIndex.pairs(r)`` builds R(r) only when asked.  ``classify`` is
sequential and deterministic; its results are not modified after it returns
and are safe for concurrent readers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import BOT_ID, TOP_ID, AxiomTable, Theory, _collector_paused


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


def gci1_by_conjunct(table: AxiomTable) -> dict[int, list[tuple[int, int]]]:
    """The asserted ``l n r [= s`` of ``table`` as l -> [(r, s)] and
    r -> [(l, s)]; GCI1_BOT has s = Bot."""
    by_conjunct: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for left, right, sup in table.ids_of("GCI1", "GCI1_BOT"):
        sup = BOT_ID if sup < 0 else sup
        by_conjunct[left].append((right, sup))
        by_conjunct[right].append((left, sup))
    return by_conjunct


def _told_rows(
    n: int, told: dict[int, list[int]], default: tuple[int, ...]
) -> list[frozenset[int]]:
    """T[x] per node of ``range(n)``: the reflexive-transitive closure of the
    told edges ``told`` (a node with none has the edges ``default``: Top for
    concepts, none for roles).  One iterative Tarjan pass emits the strongly
    connected components sinks first; each component's one frozenset, shared
    by its members, unions its successors' rows."""
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    rows: list = [None] * n
    stack: list[int] = []
    counter = n_done = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(told.get(root, default)))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(told.get(w, default))))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for m in members:
                        comp[m] = n_done
                    # successors' rows are told-closed, so a row that
                    # already holds w holds all of w's row
                    outside = [
                        w for m in members for w in told.get(m, default) if comp[w] != n_done
                    ]
                    acc = set(members)
                    for w in outside:
                        if w not in acc:
                            acc |= rows[w]
                    row = frozenset(acc)
                    for m in members:
                        rows[m] = row
                    n_done += 1
    return rows


@_collector_paused()
def classify(theory: Theory) -> tuple[SubsumptionIndex, RoleHierarchy, RoleLinkIndex]:
    """Saturate ``theory`` under CR0-CR7 (see the module docstring) and return
    its subsumption index, role hierarchy and role link relation.

    The cyclic collector is paused while it runs: its rows and link sets
    stay alive and form no cycles, so a generation-2 collection during the
    call would traverse them and the caller's objects and free nothing (see
    ``core._collector_paused``).
    """
    n_c = theory.n_concepts
    n_r = theory.n_roles

    # premise indexes over asserted axioms (BOT variants, -1 in the table's
    # last slot, folded in with target Bot)
    table = theory.table
    told: dict[int, list[int]] = defaultdict(lambda: [TOP_ID])  # CR0's Top, then CR1's
    for a, b, _ in table.ids_of("GCI0", "GCI0_BOT"):
        told[a].append(BOT_ID if b < 0 else b)
    by_conjunct = gci1_by_conjunct(table)
    gci2_by_sub: dict[int, dict[int, list[int]]] = defaultdict(dict)
    for a, r, b in table.ids_of("GCI2"):
        gci2_by_sub[a].setdefault(r, []).append(b)
    gci3_by_role_filler: dict[tuple[int, int], list[int]] = defaultdict(list)
    fillers_of_role: dict[int, set[int]] = defaultdict(set)
    for r, a, e in table.ids_of("GCI3", "GCI3_BOT"):
        gci3_by_role_filler[(r, a)].append(BOT_ID if e < 0 else e)
        fillers_of_role[r].add(a)
    conjuncts = frozenset(by_conjunct)
    gci2_subs = frozenset(gci2_by_sub)
    fillers = {r: frozenset(f) for r, f in fillers_of_role.items()}
    no_fillers: frozenset[int] = frozenset()

    role_told: dict[int, list[int]] = defaultdict(list)
    for r, s, _ in table.ids_of("RI0"):
        role_told[r].append(s)
    rsup = _told_rows(n_r, role_told, ())
    lifts = [[s for s in supers if s != r] for r, supers in enumerate(rsup)]
    chain_by_first: dict[int, list[tuple[int, int]]] = defaultdict(list)
    chain_by_second: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for first, second, s in table.ids_of("RI1"):
        chain_by_first[first].append((second, s))
        chain_by_second[second].append((first, s))

    sup: list[frozenset[int] | set[int]] = _told_rows(n_c, told, (TOP_ID,))
    del told
    bot_told = sup[BOT_ID]
    sup[BOT_ID] = frozenset(range(n_c))
    out_by_role: list[dict[int, set[int]]] = [{} for _ in range(n_c)]
    in_by_role: dict[int, dict[int, list[int]]] = {}
    pending: dict[int, set[int]] = {}  # candidate superclasses per concept
    queued_links: list = []  # (a, r, targets) for link()

    def fire(a: int, new) -> None:
        """CR2, CR3 and the CR4/CR5 re-examination of links into a, for the
        members ``new`` just added to S(a)."""
        row = sup[a]
        derived = [
            e
            for x in new & conjuncts
            for other, e in by_conjunct[x]
            if other in row and e not in row
        ]
        if derived:
            pending.setdefault(a, set()).update(derived)
        for x in new & gci2_subs:
            for r, bs in gci2_by_sub[x].items():
                queued_links.append((a, r, bs))
        preds_of = in_by_role.get(a)
        if preds_of:
            for r, preds in preds_of.items():
                hits = new & fillers.get(r, no_fillers)
                derived = [e for f in hits for e in gci3_by_role_filler[(r, f)]]
                if BOT_ID in new:
                    derived.append(BOT_ID)
                if derived:
                    for p in preds:
                        pending.setdefault(p, set()).update(derived)

    def link(a: int, r: int, targets) -> None:
        """Add (a, b) to R(r) for every b in ``targets``, an iterable that
        no one mutates, and fire CR4-CR7 on the links that are new."""
        row = out_by_role[a].get(r)
        if row is None:
            out_by_role[a][r] = row = set()
        fill = fillers.get(r, no_fillers)
        new = []
        derived = []
        for b in targets:
            if b in row:
                continue
            row.add(b)
            new.append(b)
            in_by_role.setdefault(b, {}).setdefault(r, []).append(a)
            sup_b = sup[b]
            for f in sup_b & fill:
                derived += gci3_by_role_filler[(r, f)]
            if BOT_ID in sup_b:
                derived.append(BOT_ID)
        if not new:
            return
        if derived:
            pending.setdefault(a, set()).update(derived)
        for s in lifts[r]:
            queued_links.append((a, s, new))
        for r2, s in chain_by_first.get(r, ()):
            ends = set().union(*(out_by_role[b].get(r2, ()) for b in new))
            if ends:
                queued_links.append((a, s, ends))
        for r1, s in chain_by_second.get(r, ()):
            for p in in_by_role.get(a, {}).get(r1, ()):
                queued_links.append((p, s, new))

    for a in range(n_c):
        fire(a, sup[a])
        while queued_links or pending:
            while queued_links:
                link(*queued_links.pop())
            while pending:
                a, candidates = pending.popitem()
                row = sup[a]
                new = set()
                for x in candidates:
                    if x not in row and x not in new:
                        # x's row is sound for a; Bot's is everything, so take
                        # Bot's told row instead
                        new |= (bot_told if x == BOT_ID else sup[x]) - row
                if not new:
                    continue
                if type(row) is frozenset:
                    sup[a] = row = set(row)
                row |= new
                fire(a, new)

    in_by_role.clear()  # saturation's premises only
    for a in range(n_c):
        if type(sup[a]) is set:
            sup[a] = frozenset(sup[a])
        out_by_role[a] = {r: frozenset(bs) for r, bs in out_by_role[a].items()}

    index = SubsumptionIndex(sup=tuple(sup), successors=tuple(out_by_role))
    hierarchy = RoleHierarchy(rsup=tuple(rsup))
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
