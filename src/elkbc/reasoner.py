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
  gains that are keys of the GCI1 and (chain role) GCI2 premise indexes, and
  CR4 reads ``S(b) & F3[r]``, F3[r] being the fillers of role r's GCI3s.  A
  concept that gains x takes ``S(x) - S(a)`` in one set operation: S(x) holds
  T[x] from the start and only sound members after, because x in S(a)
  implies S(x) within S(a).
* Own links.  A GCI2 whose role reaches no chain role (``rsup[r]`` meets no
  role of an RI1) is held once, as an own link at its asserted subject x for
  every super-role, and CR4/CR5 fire on it only there.  A concept's R(r) is
  the union of the own rows over its superclasses; no inherited link is
  stored.
* Holders.  Those conclusions no longer replay below x, so each increment
  of S(x) they cause is pushed to every concept holding x, along the reverse
  told edges and a reverse edge recorded whenever a concept takes another's
  row; a concept pushes on what is new to it.  The other rules' increments
  are not pushed: every holder derives them itself.
* Bot.  S(Bot) is every concept from the start, which is the one exception
  to that implication: a concept that gains Bot takes Bot's propagating row
  instead.  It starts at Bot's told row T[Bot] and grows only through pushes
  from Bot's told members and the CR4 conclusions of own links asserted at
  Bot, not those of Bot's per-concept links, so an unsatisfiable concept
  records Bot (and what Bot is told to be below), not every concept.
* Chain roles.  A GCI2 whose role reaches a chain role replays at every
  concept that holds its subject, into per-concept rows queued and added a
  list of targets at a time, with predecessor rows (for CR4, CR5 and CR7)
  only for concepts that have incoming links.  CR7 reads only these rows.

A row no rule beyond CR0/CR1 grows stays its component's shared frozenset; a
row that grows is copied on its first write and frozen at the end.
``SubsumptionIndex.successors`` is a read-only sequence whose row for a, the
own rows over S(a) plus a's per-concept rows, is built on each read.
``SubsumptionIndex`` and ``RoleLinkIndex`` share it, the closure reads its
GCI2 rows from it (and keeps the one memo over them), and
``RoleLinkIndex.pairs(r)`` builds R(r) only when asked.  ``classify`` is
sequential and deterministic; no read modifies its results, so they are
safe for concurrent readers.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from .core import BOT_ID, TOP_ID, AxiomTable, Theory, _collector_paused


class _LinkRows(Sequence):
    """The saturation's link rows, ``rows[a][r]`` being every B with (a, B) in
    R(r): the union of the own rows of a's superclasses and a's per-concept
    row.  Row a is built on each read."""

    def __init__(self, sup, own: dict, links: dict):
        self._sup = sup
        self._own = own
        self._subjects = frozenset(own)
        self._links = links

    def __len__(self) -> int:
        return len(self._sup)

    def __getitem__(self, a: int) -> dict[int, frozenset[int]]:
        a = range(len(self._sup))[a]
        parts = defaultdict(list)
        for x in self._sup[a] & self._subjects:
            for r, targets in self._own[x].items():
                parts[r].append(targets)
        for r, targets in self._links.get(a, {}).items():
            parts[r].append(targets)
        return {
            r: frozenset(ts[0]) if len(ts) == 1 else frozenset().union(*ts)
            for r, ts in sorted(parts.items())
        }


@dataclass(frozen=True)
class SubsumptionIndex:
    """All entailed superclasses per concept (reflexive, transitively closed),
    and the saturation's link rows: ``successors[a][r]`` is every B with
    (a, B) in R(r), the row ``RoleLinkIndex`` holds too, built on each read."""

    sup: tuple[frozenset[int], ...]
    successors: Sequence[dict[int, frozenset[int]]]

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

    successors: Sequence[dict[int, frozenset[int]]]
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
    holders: dict[int, list[int]] = defaultdict(list)  # reverse told and take edges
    for a, b, _ in table.ids_of("GCI0", "GCI0_BOT"):
        b = BOT_ID if b < 0 else b
        told[a].append(b)
        holders[b].append(a)
    by_conjunct = gci1_by_conjunct(table)
    gci3_by_role_filler: dict[tuple[int, int], list[int]] = defaultdict(list)
    fillers_of_role: dict[int, set[int]] = defaultdict(set)
    for r, a, e in table.ids_of("GCI3", "GCI3_BOT"):
        gci3_by_role_filler[(r, a)].append(BOT_ID if e < 0 else e)
        fillers_of_role[r].add(a)
    conjuncts = frozenset(by_conjunct)
    fillers = {r: frozenset(f) for r, f in fillers_of_role.items()}
    no_fillers: frozenset[int] = frozenset()

    role_told: dict[int, list[int]] = defaultdict(list)
    for r, s, _ in table.ids_of("RI0"):
        role_told[r].append(s)
    rsup = _told_rows(n_r, role_told, ())
    lifts = [[s for s in supers if s != r] for r, supers in enumerate(rsup)]
    chain_by_first: dict[int, list[tuple[int, int]]] = defaultdict(list)
    chain_by_second: dict[int, list[tuple[int, int]]] = defaultdict(list)
    chain_roles: set[int] = set()
    for first, second, s in table.ids_of("RI1"):
        chain_by_first[first].append((second, s))
        chain_by_second[second].append((first, s))
        chain_roles.update((first, second, s))

    # a GCI2 whose role reaches no chain role is one own link per super-role
    # at its subject; the others replay at every concept that holds it
    own: dict[int, dict[int, set[int]]] = defaultdict(dict)
    gci2_by_sub: dict[int, dict[int, list[int]]] = defaultdict(dict)
    for a, r, b in table.ids_of("GCI2"):
        if chain_roles.isdisjoint(rsup[r]):
            for s in rsup[r]:
                own[a].setdefault(s, set()).add(b)
        else:
            gci2_by_sub[a].setdefault(r, []).append(b)
    gci2_subs = frozenset(gci2_by_sub)

    sup: list[frozenset[int] | set[int]] = _told_rows(n_c, told, (TOP_ID,))
    del told
    bot_row = set(sup[BOT_ID])  # what a concept that gains Bot takes
    sup[BOT_ID] = frozenset(range(n_c))
    everyone = range(n_c)  # Top's holders
    grown: list[int] = []  # rows copied on their first write
    links: dict[int, dict[int, set[int]]] = defaultdict(dict)  # per-concept rows
    in_by_role: dict[int, dict[int, list[int]]] = {}  # per-concept link subjects
    own_in: dict[int, dict[int, list[int]]] = {}  # own link subjects
    pending: dict[int, set[int]] = {}  # candidates from per-concept rules
    own_pending: dict[int, set[int]] = {}  # candidates from own links
    pushed: dict[int, list] = {}  # increments of a concept a holds
    queued_links: list = []  # (a, r, targets) for link()
    started = 0  # concepts below it have fired their whole row

    def fire(a: int, new) -> None:
        """CR2, CR3 of the per-concept GCI2s and the CR4/CR5 re-examination
        of links into a, for the members ``new`` just added to S(a)."""
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
        for preds_of, queue in ((in_by_role.get(a), pending), (own_in.get(a), own_pending)):
            if preds_of:
                for r, preds in preds_of.items():
                    hits = new & fillers.get(r, no_fillers)
                    derived = [e for f in hits for e in gci3_by_role_filler[(r, f)]]
                    if BOT_ID in new:
                        derived.append(BOT_ID)
                    if derived:
                        for p in preds:
                            queue.setdefault(p, set()).update(derived)

    def conclude(a: int, r: int, targets, preds_of: dict, queue: dict) -> None:
        """Record a as a subject of each link (a, b) in R(r), b in ``targets``,
        and queue the links' CR4/CR5 conclusions for a."""
        fill = fillers.get(r, no_fillers)
        derived = []
        for b in targets:
            preds_of.setdefault(b, {}).setdefault(r, []).append(a)
            sup_b = sup[b]
            for f in sup_b & fill:
                derived += gci3_by_role_filler[(r, f)]
            if BOT_ID in sup_b:
                derived.append(BOT_ID)
        if derived:
            queue.setdefault(a, set()).update(derived)

    def link(a: int, r: int, targets) -> None:
        """Add (a, b) to a's per-concept R(r) for every b in ``targets``, an
        iterable that no one mutates, and fire CR4-CR7 on the links that
        are new."""
        row = links[a].get(r)
        if row is None:
            links[a][r] = row = set()
        new = []
        for b in targets:
            if b not in row:
                row.add(b)
                new.append(b)
        if not new:
            return
        conclude(a, r, new, in_by_role, pending)
        for s in lifts[r]:
            queued_links.append((a, s, new))
        for r2, s in chain_by_first.get(r, ()):
            ends = set().union(*(links[b].get(r2, ()) for b in new))
            if ends:
                queued_links.append((a, s, ends))
        for r1, s in chain_by_second.get(r, ()):
            for p in in_by_role.get(a, {}).get(r1, ()):
                queued_links.append((p, s, new))

    def take(a: int, candidates) -> set[int]:
        """What a gains from ``candidates``: each one's row (Bot's
        propagating row for Bot), a recorded as its holder."""
        row = bot_row if a == BOT_ID else sup[a]
        new: set[int] = set()
        for x in candidates:
            if x not in row and x not in new:
                # x's row is sound for a; Bot's is everything, so take Bot's
                # propagating row instead
                new |= (bot_row if x == BOT_ID else sup[x]) - row
                holders[x].append(a)
        return new

    def grow(a: int, new: set[int], spread: bool) -> None:
        """Add ``new`` to S(a) (Bot's propagating row for Bot), fire it once
        a has fired its row, and push it to a's holders when ``spread``."""
        if a == BOT_ID:
            bot_row.update(new)
        else:
            row = sup[a]
            if type(row) is frozenset:
                sup[a] = row = set(row)
                grown.append(a)
            row |= new
            if a < started:
                fire(a, new)
        if spread:
            for h in everyone if a == TOP_ID else holders.get(a, ()):
                pushed.setdefault(h, []).append(new)

    for a in range(n_c):
        started = a + 1
        fire(a, sup[a])
        for r, targets in own.get(a, {}).items():
            conclude(a, r, targets, own_in, own_pending)
        while queued_links or pending or own_pending or pushed:
            while queued_links:
                link(*queued_links.pop())
            if pending:
                x, candidates = pending.popitem()
                if x != BOT_ID and (new := take(x, candidates)):  # Bot's row is every concept
                    grow(x, new, False)
            elif own_pending:
                x, candidates = own_pending.popitem()
                if new := take(x, candidates):
                    grow(x, new, True)
            elif pushed:
                x, parts = pushed.popitem()
                row = bot_row if x == BOT_ID else sup[x]
                if new := {m for part in parts for m in part if m not in row}:
                    grow(x, new, True)

    for a in grown:
        sup[a] = frozenset(sup[a])
    sup = tuple(sup)
    index = SubsumptionIndex(sup=sup, successors=_LinkRows(sup, own, links))
    hierarchy = RoleHierarchy(rsup=tuple(rsup))
    links_index = RoleLinkIndex(successors=index.successors, n_roles=n_r)
    return index, hierarchy, links_index


def dump_subsumptions(theory: Theory, index: SubsumptionIndex) -> str:
    """One ``A <tab> B`` line per entailed atomic subsumption, id-sorted."""
    names = theory.signature.concepts
    lines = []
    for a in range(theory.n_concepts):
        for b in sorted(index.sup[a]):
            lines.append(f"{names.name_of(a)}\t{names.name_of(b)}")
    return "\n".join(lines) + ("\n" if lines else "")
