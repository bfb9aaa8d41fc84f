"""Independent oracles for the test suite.

Everything here is deliberately naive and structurally different from the
library code it checks: fixpoints re-scan every rule instantiation each pass,
the model checker enumerates finite interpretations exhaustively, and the
ranking oracle sorts and scans.  None of it imports the engines under test:
the ranking reference scores written-out axioms with the plain form of
``batch_losses``, not the ranking form that ``score_and_rank`` uses.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import numpy as np

from elkbc.core import (
    AXIOM_TAGS,
    BOT_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    RI0,
    RI1,
    SLOT_NAMES,
    Signature,
    TOP_ID,
    Theory,
    _SLOT_KINDS,
    axiom_tag,
)
from elkbc.losses import batch_losses, total_loss


# ---------------------------------------------------------------------------
# naive saturation
# ---------------------------------------------------------------------------


def naive_classify(theory: Theory):
    """Re-scan-everything fixpoint of the completion rules.

    Returns (S, R): S maps each concept to its superclass set, R maps each
    role to its set of linked concept pairs.
    """
    n_c, n_r = theory.n_concepts, theory.n_roles
    S = {a: {a, TOP_ID} for a in range(n_c)}
    S[BOT_ID] = set(range(n_c))
    R = {r: set() for r in range(n_r)}

    gci0 = [(ax.sub, ax.sup) for ax in theory.axioms_of(GCI0)]
    gci0 += [(ax.sub, BOT_ID) for ax in theory.axioms_of(GCI0Bot)]
    gci1 = [(ax.left, ax.right, ax.sup) for ax in theory.axioms_of(GCI1)]
    gci1 += [(ax.left, ax.right, BOT_ID) for ax in theory.axioms_of(GCI1Bot)]
    gci2 = [(ax.sub, ax.role, ax.filler) for ax in theory.axioms_of(GCI2)]
    gci3 = [(ax.role, ax.filler, ax.sup) for ax in theory.axioms_of(GCI3)]
    gci3 += [(ax.role, ax.filler, BOT_ID) for ax in theory.axioms_of(GCI3Bot)]
    ri0 = [(ax.sub, ax.sup) for ax in theory.axioms_of(RI0)]
    ri1 = [(ax.first, ax.second, ax.sup) for ax in theory.axioms_of(RI1)]

    changed = True
    while changed:
        changed = False
        for a in range(n_c):
            for sub, sup in gci0:
                if sub in S[a] and sup not in S[a]:
                    S[a].add(sup)
                    changed = True
            for left, right, sup in gci1:
                if left in S[a] and right in S[a] and sup not in S[a]:
                    S[a].add(sup)
                    changed = True
            for sub, role, filler in gci2:
                if sub in S[a] and (a, filler) not in R[role]:
                    R[role].add((a, filler))
                    changed = True
        for role, filler, sup in gci3:
            for (a, b) in list(R[role]):
                if filler in S[b] and sup not in S[a]:
                    S[a].add(sup)
                    changed = True
        for r in range(n_r):
            for (a, b) in list(R[r]):
                if BOT_ID in S[b] and BOT_ID not in S[a]:
                    S[a].add(BOT_ID)
                    changed = True
        for sub, sup in ri0:
            for pair in list(R[sub]):
                if pair not in R[sup]:
                    R[sup].add(pair)
                    changed = True
        for r1, r2, s in ri1:
            for (a, b) in list(R[r1]):
                for (b2, e) in list(R[r2]):
                    if b2 == b and (a, e) not in R[s]:
                        R[s].add((a, e))
                        changed = True
    return S, R


# ---------------------------------------------------------------------------
# naive per-variant closure
# ---------------------------------------------------------------------------


def _canon(a, b):
    return (a, b) if a <= b else (b, a)


def naive_closure(theory: Theory):
    """Literal rule application: one expansion pass over asserted axioms with
    premises instantiated from the naive subsumption sets, then the
    signature-level rules, with the conjunction rule iterated to a fixpoint
    per pair, then the existential composition rule (its result lifted to
    every super-role) iterated to a fixpoint.  Returns per-variant
    sets keyed like the engine's."""
    n_c, n_r = theory.n_concepts, theory.n_roles
    S, _ = naive_classify(theory)
    sub = {x: {a for a in range(n_c) if x in S[a]} for x in range(n_c)}

    rsup = {r: {r} for r in range(n_r)}
    changed = True
    while changed:
        changed = False
        for ax in theory.axioms_of(RI0):
            for r in range(n_r):
                if ax.sub in rsup[r] and ax.sup not in rsup[r]:
                    rsup[r].add(ax.sup)
                    changed = True
    rsub = {r: {q for q in range(n_r) if r in rsup[q]} for r in range(n_r)}

    gci1: dict[tuple[int, int], set[int]] = {}
    gci1_bot: set[tuple[int, int]] = set()
    gci2: dict[tuple[int, int], set[int]] = {}
    gci3: dict[tuple[int, int], set[int]] = {}
    gci3_bot: set[tuple[int, int]] = set()

    def add1(a, b, e):
        if e == BOT_ID:
            gci1_bot.add(_canon(a, b))
        else:
            gci1.setdefault(_canon(a, b), set()).add(e)

    def add3(r, a, b):
        if b == BOT_ID:
            gci3_bot.add((r, a))
        else:
            gci3.setdefault((r, a), set()).add(b)

    # one application of each asserted-axiom rule
    for ax in theory.axioms_of(GCI1):
        for a in sub[ax.left]:
            for b in sub[ax.right]:
                for e in S[ax.sup]:
                    add1(a, b, e)
    for ax in theory.axioms_of(GCI1Bot):
        for a in sub[ax.left]:
            for b in sub[ax.right]:
                gci1_bot.add(_canon(a, b))
    for ax in theory.axioms_of(GCI2):
        for a in sub[ax.sub]:
            for r in rsup[ax.role]:
                for b in S[ax.filler]:
                    gci2.setdefault((a, r), set()).add(b)
    for ax in theory.axioms_of(GCI3):
        for r in rsub[ax.role]:
            for a in sub[ax.filler]:
                for b in S[ax.sup]:
                    add3(r, a, b)
    for ax in theory.axioms_of(GCI3Bot):
        for r in rsub[ax.role]:
            for a in sub[ax.filler]:
                gci3_bot.add((r, a))

    # signature-level rules
    unsat = {a for a in range(n_c) if BOT_ID in S[a]}
    for a in range(n_c):
        for e in range(n_c):
            add1(a, BOT_ID, e)  # A n Bot [= E
            for b in unsat:
                add1(a, b, e)  # B [= Bot entails A n B [= E
    for e in range(n_c):
        for e2 in S[e]:
            for a in range(n_c):
                add1(a, e, e2)  # E [= E' entails A n E [= E'
    for a in range(n_c):  # common superclass rule
        for b in range(n_c):
            for e in S[a] & S[b]:
                add1(a, b, e)
    for a in range(n_c):  # A [= A' entails A n Top [= A'
        for a2 in S[a]:
            add1(a, TOP_ID, a2)
    # conjunctions to a fixpoint per pair: A n B [= L, A n B [= R and an
    # asserted L n R [= S entail A n B [= S' for every S' above S
    asserted = [(ax.left, ax.right, ax.sup) for ax in theory.axioms_of(GCI1)]
    asserted += [(ax.left, ax.right, BOT_ID) for ax in theory.axioms_of(GCI1Bot)]
    for a in range(n_c):
        for b in range(a, n_c):
            changed = True
            while changed and (a, b) not in gci1_bot:
                above = set(gci1.get((a, b), ()))
                changed = False
                for left, right, s in asserted:
                    if left in above and right in above and not S[s] <= above:
                        for e in S[s]:
                            add1(a, b, e)
                        changed = True
    for pair in sorted(gci1_bot):  # provably-disjoint pairs are below everything
        for e in range(n_c):
            if e != BOT_ID:
                gci1.setdefault(pair, set()).add(e)
    for a in unsat:
        for r in range(n_r):
            for b in range(n_c):
                gci2.setdefault((a, r), set()).add(b)
    for r in range(n_r):
        for a in range(n_c):
            if a != BOT_ID:
                gci3.setdefault((r, a), set()).add(TOP_ID)

    # existential composition to a fixpoint; r1 o r2 [= s and s [= s' give
    # the composed link under s' too
    chains = [(ax.first, ax.second, ax.sup) for ax in theory.axioms_of(RI1)]
    changed = True
    while changed:
        changed = False
        for r1, r2, s in chains:
            for (a, r), fillers in list(gci2.items()):
                if r != r1:
                    continue
                for m in list(fillers):
                    for e in list(gci2.get((m, r2), ())):
                        for s2 in rsup[s]:
                            dest = gci2.setdefault((a, s2), set())
                            if e not in dest:
                                dest.add(e)
                                changed = True

    gci0 = {(a, b) for a in range(n_c) for b in S[a]}
    gci0_bot = set(unsat)
    return {
        "GCI0": gci0,
        "GCI0_BOT": gci0_bot,
        "GCI1": gci1,
        "GCI1_BOT": gci1_bot,
        "GCI2": gci2,
        "GCI3": gci3,
        "GCI3_BOT": gci3_bot,
    }


def closure_axioms(ref: dict) -> dict[str, set]:
    """``naive_closure``'s result written out as axioms, per variant: a
    keyed row gives one axiom per member, a set of keys one axiom per key."""
    out = {}
    for tag, rows in ref.items():
        cls = AXIOM_TAGS[tag]
        if isinstance(rows, dict):
            out[tag] = {cls(*key, v) for key, members in rows.items() for v in members}
        else:
            out[tag] = {cls(*key) if isinstance(key, tuple) else cls(key) for key in rows}
    return out


# ---------------------------------------------------------------------------
# brute-force finite models
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _exists_table(domain: int):
    """(role bits, filler bits) -> bits of elements with a successor in filler."""
    table = {}
    for role in range(1 << (domain * domain)):
        for filler in range(1 << domain):
            bits = 0
            for x in range(domain):
                for y in range(domain):
                    if role & (1 << (x * domain + y)) and filler & (1 << y):
                        bits |= 1 << x
                        break
            table[(role, filler)] = bits
    return table


def _compose(role1: int, role2: int, domain: int) -> int:
    bits = 0
    for x in range(domain):
        for y in range(domain):
            if not role1 & (1 << (x * domain + y)):
                continue
            for z in range(domain):
                if role2 & (1 << (y * domain + z)):
                    bits |= 1 << (x * domain + z)
    return bits


def axiom_holds(ax, concepts: tuple[int, ...], roles: tuple[int, ...], domain: int) -> bool:
    """Truth of a normalized axiom in one finite interpretation (bitmask
    extensions; concept ids index ``concepts``, role ids index ``roles``)."""
    ext = _exists_table(domain)
    full = (1 << domain) - 1
    if isinstance(ax, GCI0):
        return concepts[ax.sub] & ~concepts[ax.sup] & full == 0
    if isinstance(ax, GCI0Bot):
        return concepts[ax.sub] == 0
    if isinstance(ax, GCI1):
        return concepts[ax.left] & concepts[ax.right] & ~concepts[ax.sup] & full == 0
    if isinstance(ax, GCI1Bot):
        return concepts[ax.left] & concepts[ax.right] == 0
    if isinstance(ax, GCI2):
        return concepts[ax.sub] & ~ext[(roles[ax.role], concepts[ax.filler])] & full == 0
    if isinstance(ax, GCI3):
        return ext[(roles[ax.role], concepts[ax.filler])] & ~concepts[ax.sup] & full == 0
    if isinstance(ax, GCI3Bot):
        return ext[(roles[ax.role], concepts[ax.filler])] == 0
    if isinstance(ax, RI0):
        return roles[ax.sub] & ~roles[ax.sup] == 0
    if isinstance(ax, RI1):
        comp = _compose(roles[ax.first], roles[ax.second], domain)
        return comp & ~roles[ax.sup] == 0
    raise TypeError(ax)


def enumerate_models(theory: Theory, max_domain: int = 3):
    """Every interpretation over domains of size 1..max_domain that models the
    theory, as (concept extensions, role extensions, domain size) triples."""
    n_free = theory.n_concepts - 2
    n_r = theory.n_roles
    models = []
    for domain in range(1, max_domain + 1):
        full = (1 << domain) - 1
        for frees in itertools.product(range(1 << domain), repeat=n_free):
            concepts = (full, 0) + frees
            for role_ext in itertools.product(range(1 << (domain * domain)), repeat=n_r):
                if all(axiom_holds(ax, concepts, role_ext, domain) for ax in theory.axioms):
                    models.append((concepts, role_ext, domain))
    return models


class VectorModels:
    """All models of a theory over domains 1..max_domain, with vectorized
    per-axiom truth evaluation (bitmask columns, numpy lookup tables)."""

    def __init__(self, theory: Theory, max_domain: int = 3):
        self.per_domain = []
        n_free = theory.n_concepts - 2
        n_r = theory.n_roles
        for domain in range(1, max_domain + 1):
            full = (1 << domain) - 1
            free_grid = np.array(
                list(itertools.product(range(1 << domain), repeat=n_free)), dtype=np.int64
            )
            role_grid = np.array(
                list(itertools.product(range(1 << (domain * domain)), repeat=n_r)),
                dtype=np.int64,
            )
            m_c, m_r = len(free_grid), len(role_grid)
            concepts = np.empty((m_c * m_r, theory.n_concepts), dtype=np.int64)
            concepts[:, TOP_ID] = full
            concepts[:, BOT_ID] = 0
            if n_free:
                concepts[:, 2:] = np.repeat(free_grid, m_r, axis=0)
            roles = np.tile(role_grid, (m_c, 1))
            ex_tab = np.zeros((1 << (domain * domain), 1 << domain), dtype=np.int64)
            for (rb, fb), bits in _exists_table(domain).items():
                ex_tab[rb, fb] = bits
            state = {"domain": domain, "full": full, "concepts": concepts,
                     "roles": roles, "ex_tab": ex_tab, "compose": None}
            mask = np.ones(len(concepts), dtype=bool)
            for ax in theory.axioms:
                mask &= self._holds(state, ax)
            state["concepts"] = concepts[mask]
            state["roles"] = roles[mask]
            self.per_domain.append(state)

    @staticmethod
    def _compose_table(domain: int) -> np.ndarray:
        size = 1 << (domain * domain)
        table = np.zeros((size, size), dtype=np.int64)
        for r1 in range(size):
            for r2 in range(size):
                table[r1, r2] = _compose(r1, r2, domain)
        return table

    def _holds(self, state, ax) -> np.ndarray:
        conc, roles = state["concepts"], state["roles"]
        full, ex_tab = state["full"], state["ex_tab"]
        if isinstance(ax, GCI0):
            return (conc[:, ax.sub] & ~conc[:, ax.sup] & full) == 0
        if isinstance(ax, GCI0Bot):
            return conc[:, ax.sub] == 0
        if isinstance(ax, GCI1):
            return (conc[:, ax.left] & conc[:, ax.right] & ~conc[:, ax.sup] & full) == 0
        if isinstance(ax, GCI1Bot):
            return (conc[:, ax.left] & conc[:, ax.right]) == 0
        if isinstance(ax, GCI2):
            ex = ex_tab[roles[:, ax.role], conc[:, ax.filler]]
            return (conc[:, ax.sub] & ~ex & full) == 0
        if isinstance(ax, GCI3):
            ex = ex_tab[roles[:, ax.role], conc[:, ax.filler]]
            return (ex & ~conc[:, ax.sup] & full) == 0
        if isinstance(ax, GCI3Bot):
            return ex_tab[roles[:, ax.role], conc[:, ax.filler]] == 0
        if isinstance(ax, RI0):
            return (roles[:, ax.sub] & ~roles[:, ax.sup]) == 0
        if isinstance(ax, RI1):
            if state["compose"] is None:
                state["compose"] = self._compose_table(state["domain"])
            comp = state["compose"][roles[:, ax.first], roles[:, ax.second]]
            return (comp & ~roles[:, ax.sup]) == 0
        raise TypeError(ax)

    def n_models(self) -> int:
        return sum(len(s["concepts"]) for s in self.per_domain)

    def holds_everywhere(self, ax) -> bool:
        return all(bool(self._holds(s, ax).all()) for s in self.per_domain)


# ---------------------------------------------------------------------------
# random theories
# ---------------------------------------------------------------------------


def random_theory(
    rng: np.random.Generator,
    max_concepts: int = 8,
    max_roles: int = 3,
    max_axioms: int = 15,
    allow_chains: bool = True,
) -> Theory:
    n_c = int(rng.integers(3, max_concepts + 1))
    n_r = int(rng.integers(1, max_roles + 1))
    sig = Signature()
    for i in range(n_c - 2):
        sig.concepts.intern(f"c{i}")
    for i in range(n_r):
        sig.roles.intern(f"r{i}")

    def concept(no_bot=False):
        while True:
            c = int(rng.integers(0, n_c))
            if not (no_bot and c == BOT_ID):
                return c

    def role():
        return int(rng.integers(0, n_r))

    kinds = ["GCI0", "GCI1", "GCI2", "GCI3", "GCI0_BOT", "GCI1_BOT", "GCI3_BOT", "RI0"]
    weights = [0.22, 0.16, 0.18, 0.16, 0.06, 0.08, 0.06, 0.08]
    if allow_chains:
        kinds.append("RI1")
        weights.append(0.06)
        weights[0] -= 0.06
    axioms = []
    for _ in range(int(rng.integers(1, max_axioms + 1))):
        kind = rng.choice(kinds, p=np.array(weights) / sum(weights))
        if kind == "GCI0":
            axioms.append(GCI0(concept(), concept()))
        elif kind == "GCI1":
            axioms.append(GCI1(concept(), concept(), concept()))
        elif kind == "GCI2":
            axioms.append(GCI2(concept(), role(), concept()))
        elif kind == "GCI3":
            axioms.append(GCI3(role(), concept(), concept()))
        elif kind == "GCI0_BOT":
            axioms.append(GCI0Bot(concept(no_bot=True)))
        elif kind == "GCI1_BOT":
            axioms.append(GCI1Bot(concept(no_bot=True), concept(no_bot=True)))
        elif kind == "GCI3_BOT":
            axioms.append(GCI3Bot(role(), concept(no_bot=True)))
        elif kind == "RI0":
            axioms.append(RI0(role(), role()))
        else:
            axioms.append(RI1(role(), role(), role()))
    return Theory(sig, axioms)


# ---------------------------------------------------------------------------
# sort-and-scan ranking
# ---------------------------------------------------------------------------


def naive_rank(scores: list[float], true_idx: int, keep: list[bool]) -> tuple[int, int]:
    """Mid-rank of the true candidate computed by explicit sorting."""
    kept = [(s, i) for i, (s, k) in enumerate(zip(scores, keep)) if k]
    kept.sort(key=lambda t: t[0])
    values = [s for s, _ in kept]
    true_score = scores[true_idx]
    first = None
    group = 0
    for pos, v in enumerate(values):
        if v == true_score:
            if first is None:
                first = pos
            group += 1
        elif first is not None:
            break
    rank = (first + 1) + (group - 1) // 2
    return rank, len(kept)


def written_out_ranks(model, ax, pool, train_axioms=frozenset(), closures=()):
    """(raw rank, pool, filtered rank, filtered pool) of a GCI0 or GCI2 test
    axiom: one written-out axiom per candidate, scored by the plain form of
    ``batch_losses`` and ranked by ``naive_rank``; a written-out axiom other
    than the test axiom's own is dropped when it is in the train set or
    entailed by a closure."""
    slot = "sup" if isinstance(ax, GCI0) else "filler"
    written = [dataclasses.replace(ax, **{slot: c}) for c in pool]
    scores = list(batch_losses(model, axiom_tag(ax), "positive", written))
    true_idx = list(pool).index(getattr(ax, slot))
    keep = [
        c == getattr(ax, slot)
        or not (w in train_axioms or any(dc.entails(w) for dc in closures))
        for c, w in zip(pool, written)
    ]
    return (*naive_rank(scores, true_idx, [True] * len(pool)), *naive_rank(scores, true_idx, keep))


def naive_metrics(entries: list[dict], micro_denominator: int | None = None) -> dict:
    """Aggregate ranking metrics from per-axiom dicts with keys
    subject / rank / pool (plain loops, no vectorization)."""
    n = len(entries)
    hits10 = sum(1 for e in entries if e["rank"] <= 10) / n
    hits100 = sum(1 for e in entries if e["rank"] <= 100) / n
    macro_mr = sum(e["rank"] for e in entries) / n

    def auc(rank, pool):
        if pool <= 1:
            return 1.0
        return 1.0 - (rank - 1) / (pool - 1)

    macro_auc = sum(auc(e["rank"], e["pool"]) for e in entries) / n
    per_subject: dict[int, list[dict]] = {}
    for e in entries:
        per_subject.setdefault(e["subject"], []).append(e)
    mr_means = [sum(e["rank"] for e in grp) / len(grp) for grp in per_subject.values()]
    auc_means = [
        sum(auc(e["rank"], e["pool"]) for e in grp) / len(grp) for grp in per_subject.values()
    ]
    denom = micro_denominator if micro_denominator is not None else len(per_subject)
    micro_mr = sum(mr_means) / denom
    micro_auc = sum(auc_means) / denom
    return {
        "H@10": hits10,
        "H@100": hits100,
        "macro_MR": macro_mr,
        "micro_MR": micro_mr,
        "macro_AUC": macro_auc,
        "micro_AUC": micro_auc,
    }


# ---------------------------------------------------------------------------
# dense Adam
# ---------------------------------------------------------------------------


class DenseAdam:
    """Adam that rewrites every row of every block on every step, then
    clamps every radius and offset block to be non-negative.  It stands in
    for the trainer's optimizer: same constructor, and ``step`` also zeros
    the fenced gradient buffer for the next step, through its own
    ``zero_touched``."""

    def __init__(self, model, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.t = 0

    def step(self, params, grad, lr) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grad.items():
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
        grad.zero_touched()
        for name, arr in params.items():
            if name.endswith("_radius") or name.endswith("_offset"):
                np.maximum(arr, 0.0, out=arr)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd_gradient(model, requests, h):
    """Central differences of ``total_loss`` at step ``h``, one parameter
    entry at a time, as arrays shaped like the model's parameter blocks."""
    grad = {}
    for name, arr in model.params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = total_loss(model, requests)
            arr[ix] = orig - h
            lm = total_loss(model, requests)
            arr[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        grad[name] = g
    return grad


# ---------------------------------------------------------------------------
# sequential gradient scatter
# ---------------------------------------------------------------------------


def sequential_scatter(start, pushes):
    """Gradient arrays after adding each push in turn, from copies of
    ``start``: one ``np.add.at`` of ``factor * d`` onto the push's rows per
    push, as the loss terms once wrote them; a push whose rows are None adds
    ``d`` onto every row of its block."""
    out = {name: arr.copy() for name, arr in start.items()}
    for block, rows, d, factor in pushes:
        if rows is None:
            out[block] += d
        else:
            np.add.at(out[block], rows, factor * d)
    return out


# ---------------------------------------------------------------------------
# counter-based negative sampling
# ---------------------------------------------------------------------------

_MASK64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_finalizer(x: int) -> int:
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _MASK64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _MASK64
    return x ^ x >> 31


def counter_word(seed: int, row: int, draw: int, attempt: int, purpose: int) -> int:
    """The sampler's 64-bit word for one coordinate, in Python integers."""
    x = _splitmix_finalizer((seed % 2**64 + _GOLDEN * (purpose + 1)) & _MASK64)
    for step in (row, draw, attempt):
        x = _splitmix_finalizer((x + _GOLDEN * step) & _MASK64)
    return x


def counter_corrupt_loop(axioms, count, cfg, dc, seed, n_concepts, stats=None):
    """Negatives and skip count of the counter-based sampler, one row, draw
    and attempt at a time: a biased coin (purpose 1) and pick (purpose 2, among
    the entailed fillers in the pool), else random candidates (purpose 0) until
    one is neither the current value nor, when filtered, entailed by
    ``dc.entails``.  ``stats`` counts the
    random candidates (``drawn``) and the entailed ones (``entailed_rejected``)."""
    stats = {} if stats is None else stats
    stats.setdefault("drawn", 0)
    stats.setdefault("entailed_rejected", 0)
    pool = list(cfg.pool) if cfg.pool is not None else [
        c for c in range(n_concepts) if c not in (TOP_ID, BOT_ID)
    ]
    negatives, skipped = [], 0
    for row, ax in enumerate(axioms):
        tag = axiom_tag(ax)
        # the rightmost concept slot
        slot = [n for n, k in zip(SLOT_NAMES[tag], _SLOT_KINDS[tag]) if k == "c"][-1]
        current = getattr(ax, slot)
        for draw in range(count):
            coin = counter_word(seed, row, draw, 0, 1) >> 11
            if cfg.mode == "biased" and coin * 2.0**-53 < cfg.bias_p:
                entailed = [
                    v for v in sorted(dc.entailed_fillers(ax)) if v != current and v in pool
                ]
                if entailed:
                    pick = entailed[counter_word(seed, row, draw, 0, 2) % len(entailed)]
                    negatives.append(dataclasses.replace(ax, **{slot: pick}))
                    continue
            for attempt in range(cfg.retry_limit):
                cand = pool[counter_word(seed, row, draw, attempt, 0) % len(pool)]
                stats["drawn"] += 1
                if cand == current:
                    continue
                negative = dataclasses.replace(ax, **{slot: cand})
                if cfg.mode == "filtered" and dc.entails(negative):
                    stats["entailed_rejected"] += 1
                    continue
                negatives.append(negative)
                break
            else:
                skipped += 1
    return negatives, skipped
