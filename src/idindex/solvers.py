"""Exact and heuristic search for the minimum number of distinct ranks.

The search never touches real-valued assignments.  Whether an assignment
identifies all vertices depends only on the partition of the vertices into
equal-rank classes: vertex strings are linear in the class counts
``N_i(v, c)`` (how many class-``c`` vertices sit at distance ``i`` from
``v``), so two vertices can share a string under *some* value choice only
if they share all counts, and giving class ``c`` the rank ``(n+1)^c`` makes
the coordinates base-(n+1) encodings of those counts, realizing every
count difference as a string difference.  Minimizing distinct rank values
therefore reduces to finding the smallest ``k`` for which some ``k``-class
partition separates all count pairs, with the geometric ranks as an
explicit integer witness.

``id_index_exact`` enumerates partitions as restricted-growth strings in
lexicographic order (depth-first over vertices ``0..n-1``), pruned by

* twins: vertices with equal open or closed neighbourhoods see every other
  vertex at equal distance, so two same-class twins can never separate;
* pair watching: for each unordered pair that could ever collide, the
  search maintains the running count differences and kills a branch as
  soon as the last vertex able to separate a pair is placed while all
  differences are zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, DistanceMatrix, all_pairs_distances
from .strings_codes import (
    RankAssignment,
    RedWhiteColoring,
    code_table,
    first_collision,
    is_distinguishing,
    string_table,
)
from .structure import TupletClasses, tuplet_classes

from itertools import combinations


class BudgetExceededError(Exception):
    """Search ran out of its node or size budget.

    For the partition search the certified bracket ``lower <= answer <=
    upper`` is attached (levels below ``lower`` were exhausted or excluded
    by the twin bound; ``upper`` comes from a verified greedy witness).
    """

    def __init__(self, message, lower=None, upper=None, nodes=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes = nodes


class InternalInvariantError(Exception):
    """A solver result failed its own re-verification."""


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the exact searches."""

    max_nodes: int = 10_000_000
    id_number_max_n: int = 22


@dataclass(frozen=True)
class Partition:
    """Vertex partition in restricted-growth form.

    ``assignment[v]`` is the class of vertex ``v``; class labels appear in
    first-use order starting from 0, and ``k`` is the number of classes.
    """

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self):
        if not self.assignment:
            raise ValueError("empty partition")
        mx = -1
        for a in self.assignment:
            if a < 0 or a > mx + 1:
                raise ValueError("assignment is not in restricted-growth form")
            if a == mx + 1:
                mx = a
        if self.k != mx + 1:
            raise ValueError(f"k={self.k} but {mx + 1} classes are used")


def to_restricted_growth(labels) -> Partition:
    """Relabel an arbitrary class labelling into restricted-growth form."""
    seen: dict = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return Partition(tuple(out), len(seen))


def partition_of_ranks(f: RankAssignment) -> Partition:
    """The equal-rank partition induced by an assignment."""
    return to_restricted_growth(f.ranks)


def partition_distinguishes(dm: DistanceMatrix, p: Partition):
    """Whether the partition separates every vertex pair by counts.

    By the reduction above, this holds exactly when the geometric
    certificate ranks identify the graph.  Returns ``(True, None)`` or
    ``(False, (u, v))`` with the lexicographically smallest colliding pair.
    """
    n = len(dm.dist)
    if len(p.assignment) != n:
        raise ValueError(f"partition of {len(p.assignment)} vertices on n={n}")
    pair = first_collision(string_table(dm, certificate_ranks(p)))
    return (pair is None), pair


def certificate_ranks(p: Partition) -> RankAssignment:
    """Geometric witness ranks: class ``c`` gets ``(n+1)^c``."""
    base = len(p.assignment) + 1
    powers = [base**c for c in range(p.k)]
    return RankAssignment(tuple(powers[c] for c in p.assignment))


@dataclass(frozen=True)
class InfeasibilityWitness:
    """Certification that no partition with ``level`` classes identifies.

    ``certified_by`` is ``exhaustive-search`` (the level was searched to
    completion), ``tuplet-bound`` (some twin class is larger than
    ``level``), or ``vacuous`` (``level`` is 0).
    """

    level: int
    certified_by: str
    nodes: int


@dataclass(frozen=True)
class IdIndexCertificate:
    k: int
    partition: Partition
    ranks: RankAssignment
    strings: list[tuple[int, ...]]
    lower_bound: int
    infeasibility: InfeasibilityWitness | None
    nodes_searched: int
    note: str | None = None

    def to_json(self) -> dict:
        obj = {
            "k": self.k,
            "partition": list(self.partition.assignment),
            "ranks": [str(r) for r in self.ranks.ranks],
            "strings": [[str(x) for x in row] for row in self.strings],
            "lower_bound": self.lower_bound,
            "exhausted_k_minus_1": self.infeasibility is not None,
            "nodes_searched": self.nodes_searched,
        }
        if self.note is not None:
            obj["note"] = self.note
        return obj


@dataclass(frozen=True)
class IdNumberResult:
    is_id_graph: bool
    id_number: int | None
    coloring: RedWhiteColoring | None


class _BudgetStop(Exception):
    pass


class _PairWatcher:
    """Shared per-graph structures for the level searches.

    For each unordered pair (u, v) that twins and distance-count sums do
    not already settle, ``updates[w]`` records how placing vertex ``w``
    into a class shifts the running differences N_i(u, .) - N_i(v, .), and
    ``finalize_at[w]`` lists the pairs whose differences are complete once
    ``w`` is placed.
    """

    def __init__(self, g: Graph, dm: DistanceMatrix, tc: TupletClasses):
        n = g.n
        dist = dm.dist
        self.n = n
        self.diam = dm.diameter

        class_of = tc.class_index()
        self.twin_prev = [
            [u for u in range(v) if class_of[u] == class_of[v]] for v in range(n)
        ]

        # with every rank 1, a vertex's string counts the vertices on each sphere
        count_vec = string_table(dm, RankAssignment((1,) * n))

        self.updates = [[] for _ in range(n)]
        self.finalize_at = [[] for _ in range(n)]
        self.pair_count = 0
        for u in range(n):
            for v in range(u + 1, n):
                if count_vec[u] != count_vec[v]:
                    continue  # some distance count differs: always separated
                if class_of[u] == class_of[v]:
                    continue  # twins: handled by the twin rule
                p = self.pair_count
                self.pair_count += 1
                duv = dist[u][v]
                last = v
                self.updates[u].append((p, -1, duv))
                self.updates[v].append((p, duv, -1))
                for w in range(n):
                    if w == u or w == v:
                        continue
                    i, j = dist[u][w], dist[v][w]
                    if i != j:
                        self.updates[w].append((p, i, j))
                        last = max(last, w)
                self.finalize_at[last].append(p)

    def search_level(self, k: int, budget: int):
        """First identifying k-class partition in lexicographic order.

        Returns ``(assignment or None, nodes, completed)``; ``completed``
        is False when the node budget ran out mid-level.
        """
        n = self.n
        width = (self.diam + 1) * k
        delta = [[0] * width for _ in range(self.pair_count)]
        nonzero = [0] * self.pair_count
        assign = [-1] * n
        nodes = 0
        updates = self.updates
        finalize_at = self.finalize_at
        twin_prev = self.twin_prev

        def place(w, c):
            for p, ip, im in updates[w]:
                row = delta[p]
                if ip >= 0:
                    s = ip * k + c
                    old = row[s]
                    row[s] = old + 1
                    if old == 0:
                        nonzero[p] += 1
                    elif old == -1:
                        nonzero[p] -= 1
                if im >= 0:
                    s = im * k + c
                    old = row[s]
                    row[s] = old - 1
                    if old == 0:
                        nonzero[p] += 1
                    elif old == 1:
                        nonzero[p] -= 1
            for p in finalize_at[w]:
                if nonzero[p] == 0:
                    return True
            return False

        def unplace(w, c):
            for p, ip, im in updates[w]:
                row = delta[p]
                if ip >= 0:
                    s = ip * k + c
                    old = row[s]
                    row[s] = old - 1
                    if old == 0:
                        nonzero[p] += 1
                    elif old == 1:
                        nonzero[p] -= 1
                if im >= 0:
                    s = im * k + c
                    old = row[s]
                    row[s] = old + 1
                    if old == 0:
                        nonzero[p] += 1
                    elif old == -1:
                        nonzero[p] -= 1

        def dfs(idx, used):
            nonlocal nodes
            if idx == n:
                return used == k
            rem = n - idx
            if used + rem < k:
                return False
            lo = used if used + rem == k else 0
            hi = used if used < k else k - 1
            for c in range(lo, hi + 1):
                conflict = False
                for t in twin_prev[idx]:
                    if assign[t] == c:
                        conflict = True
                        break
                if conflict:
                    continue
                nodes += 1
                if nodes > budget:
                    raise _BudgetStop
                assign[idx] = c
                dead = place(idx, c)
                if not dead and dfs(idx + 1, used + 1 if c == used else used):
                    return True
                unplace(idx, c)
                assign[idx] = -1
            return False

        try:
            found = dfs(0, 0)
        except _BudgetStop:
            return None, nodes, False
        return (list(assign) if found else None), nodes, True


def id_index_exact(g: Graph, limits: SearchLimits | None = None) -> IdIndexCertificate:
    """Minimum number of distinct ranks, with a verified certificate.

    Iterates the class count ``k`` upward from the twin lower bound,
    exhausting each level before moving on; the returned partition is the
    lexicographically least feasible restricted-growth string at the
    optimal ``k``.  Raises ``BudgetExceededError`` (with the certified
    bracket) when the node budget runs out, ``DisconnectedError`` for
    disconnected input.
    """
    limits = limits or SearchLimits()
    dm = all_pairs_distances(g)
    if g.n == 1:
        p = Partition((0,), 1)
        return IdIndexCertificate(
            k=1,
            partition=p,
            ranks=certificate_ranks(p),
            strings=[()],
            lower_bound=1,
            infeasibility=InfeasibilityWitness(0, "vacuous", 0),
            nodes_searched=0,
            note="by convention",
        )
    tc = tuplet_classes(g)
    lower = tc.max_size
    watcher = _PairWatcher(g, dm, tc)
    total_nodes = 0
    prev_level_nodes = 0
    for k in range(lower, g.n + 1):
        assign, nodes, completed = watcher.search_level(k, limits.max_nodes - total_nodes)
        total_nodes += nodes
        if not completed:
            upper, _ = greedy_upper_bound(g)
            raise BudgetExceededError(
                f"node budget {limits.max_nodes} exhausted; answer in [{k}, {upper}]",
                lower=k,
                upper=upper,
                nodes=total_nodes,
            )
        if assign is not None:
            p = Partition(tuple(assign), max(assign) + 1)
            ranks = certificate_ranks(p)
            strings = string_table(dm, ranks)
            if not is_distinguishing(strings):
                raise InternalInvariantError(
                    "certificate ranks fail string re-verification"
                )
            if k == lower:
                witness = InfeasibilityWitness(
                    k - 1, "vacuous" if k == 1 else "tuplet-bound", 0
                )
            else:
                witness = InfeasibilityWitness(k - 1, "exhaustive-search", prev_level_nodes)
            return IdIndexCertificate(
                k=k,
                partition=p,
                ranks=ranks,
                strings=strings,
                lower_bound=lower,
                infeasibility=witness,
                nodes_searched=total_nodes,
            )
        prev_level_nodes = nodes
    raise InternalInvariantError("no identifying partition up to k = n")


def id_number_exact(g: Graph, limits: SearchLimits | None = None) -> IdNumberResult:
    """Smallest red set whose codes identify all vertices, if any.

    Searches red subsets by increasing cardinality (lexicographic within a
    cardinality), so the first hit is a minimum witness.  A graph at or
    below the size budget that survives all ``2^n - 1`` subsets is
    certified not identifiable by any coloring.
    """
    limits = limits or SearchLimits()
    if g.n > limits.id_number_max_n:
        raise BudgetExceededError(
            f"subset search needs 2^{g.n} - 1 colorings, budget is n <= "
            f"{limits.id_number_max_n}"
        )
    dm = all_pairs_distances(g)
    for r in range(1, g.n + 1):
        for red in combinations(range(g.n), r):
            coloring = RedWhiteColoring(g.n, frozenset(red))
            if is_distinguishing(code_table(dm, coloring)):
                return IdNumberResult(True, r, coloring)
    return IdNumberResult(False, None, None)


def greedy_upper_bound(g: Graph, seed: int = 0) -> tuple[int, IdIndexCertificate]:
    """Verified upper bound by repeated class splitting.

    Starts from the coarsest twin-respecting partition (member ``j`` of
    each twin class goes to class ``j``) and, while some pair collides,
    moves one endpoint of the first colliding pair into a fresh class.
    The endpoint is drawn with a seeded RNG among those whose class still
    has at least two members, so runs are reproducible.  All-singletons
    always identifies, so this terminates with ``k <= n``.
    """
    dm = all_pairs_distances(g)
    tc = tuplet_classes(g)
    rng = random.Random(seed)
    labels = [0] * g.n
    for cls in tc.classes:
        for j, v in enumerate(sorted(cls.members)):
            labels[v] = j
    p = to_restricted_growth(labels)
    while True:
        # the last pass verifies the returned certificate's own strings
        ranks = certificate_ranks(p)
        strings = string_table(dm, ranks)
        pair = first_collision(strings)
        if pair is None:
            break
        u, v = pair
        sizes = [p.assignment.count(p.assignment[x]) for x in (u, v)]
        candidates = [x for x, s in zip((u, v), sizes) if s >= 2]
        if not candidates:
            raise InternalInvariantError("colliding pair of two singleton classes")
        pick = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        labels = list(p.assignment)
        labels[pick] = p.k  # fresh class
        p = to_restricted_growth(labels)
    cert = IdIndexCertificate(
        k=p.k,
        partition=p,
        ranks=ranks,
        strings=strings,
        lower_bound=tc.max_size,
        infeasibility=None,
        nodes_searched=0,
    )
    return p.k, cert
