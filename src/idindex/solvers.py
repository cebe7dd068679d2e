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
explicit integer witness.  A red set asks the same with one counted class.

Neither search tries a level the sphere-counting bound
(``structure.counting_lower_bound``) already rules out: ``m`` vertices
with the same sphere sizes need ``m`` distinct count matrices, and ``k``
classes allow only so many.  ``id_index_exact`` starts at that bound, and
its ``k - 1`` witness says ``counting-bound`` when the answer meets it.  A
red set whose codes identify the graph makes a 2-class partition that
separates it, so a bound of 3 or more answers "not an ID graph" at once.
The bound is never below the twin bound T, which the certificates still
report as ``lower_bound``.

One kernel, ``_PairWatcher``, labels vertices ``0..n-1`` depth-first with
an explicit stack for both exact searches, in lexicographic order:
``k``-class restricted-growth strings for ``id_index_exact``, red sets of
``r`` vertices, red before white, for ``id_number_exact``.  It prunes by

* twins: vertices with equal open or closed neighbourhoods see every other
  vertex at equal distance, so two same-label twins can never separate;
* pair watching: for each unordered pair that could ever collide, the
  search keeps per counted class one exact integer whose balanced digits
  are the running count differences, one digit per distance, and kills a
  branch as soon as the last vertex able to separate a pair is placed
  while that integer is zero on every class.

Both searches raise ``BudgetExceededError`` after ``max_nodes`` search
nodes, ``DEFAULT_MAX_NODES`` unless the caller gives a budget.  Results are
plain values; ``cli`` writes them as JSON.
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
from .structure import TupletClasses, counting_lower_bound, tuplet_classes


class BudgetExceededError(Exception):
    """Search ran out of its node or size budget.

    For the partition search the certified bracket ``lower <= answer <=
    upper`` is attached (levels below ``lower`` were exhausted or excluded
    by the twin or the counting bound; ``upper`` comes from a verified
    greedy witness).
    """

    def __init__(self, message, lower=None, upper=None, nodes=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes = nodes


class InternalInvariantError(Exception):
    """A solver result failed its own re-verification."""


# node budget of both exact searches unless the caller gives one
DEFAULT_MAX_NODES = 10_000_000


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
    ``level``), ``counting-bound`` (``level`` classes allow fewer count
    matrices than some group of vertices with equal sphere sizes has
    members; ``nodes`` is 0), or ``vacuous`` (``level`` is 0).
    """

    level: int
    certified_by: str
    nodes: int


@dataclass(frozen=True)
class IdIndexCertificate:
    """Result of ``id_index_exact``; ``greedy_upper_bound`` fills the same
    fields with no infeasibility witness.

    ``lower_bound`` is the twin bound T, the largest twin class, even where
    the search started higher at the counting bound: the JSON
    ``lower_bound`` and the sweep columns report T.
    """

    k: int
    partition: Partition
    ranks: RankAssignment
    strings: list[tuple[int, ...]]
    lower_bound: int
    infeasibility: InfeasibilityWitness | None
    nodes_searched: int
    note: str | None = None


@dataclass(frozen=True)
class IdNumberResult:
    is_id_graph: bool
    id_number: int | None
    coloring: RedWhiteColoring | None


# refuse a watcher whose tables would exceed this many (pair, vertex)
# entries, about 72 bytes each on 64-bit CPython 3.11 (a 3-tuple and its list
# slot); cycle:120, watching every pair, needs 856,800
_MAX_WATCH_ENTRIES = 4_000_000


class _PairWatcher:
    """Shared per-graph structures for the level searches.

    The search keeps, per counted class ``c`` and per unordered non-twin
    pair (u, v) with ``key[u] == key[v]`` (other pairs always separate), one
    integer whose digit ``i-1`` in base ``2S+1`` is N_i(u, c) - N_i(v, c),
    where ``S`` is the largest sphere, the largest entry of ``spheres`` (the
    string table under all-one ranks).  Each count lies in ``[0, S]``, so
    each digit lies in ``[-S, S]``; balanced digits in that range are
    unique, and the integer is 0 exactly when every count difference is.
    ``updates[w]`` holds ``(p, power[d(u, w)], power[d(v, w)])`` for the
    pairs whose integer changes when ``w`` joins a class, with ``power[0] =
    0`` since no vertex counts itself; ``finalize_at[w]`` lists the pairs
    whose integers are complete once ``w`` is placed.
    """

    def __init__(self, dm: DistanceMatrix, tc: TupletClasses, spheres, key):
        n = len(dm.dist)
        dist = dm.dist
        self.n = n

        class_of = tc.class_index()
        self.twin_prev = [
            [u for u in range(v) if class_of[u] == class_of[v]] for v in range(n)
        ]
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if key[u] == key[v] and class_of[u] != class_of[v]
        ]
        if len(pairs) * n > _MAX_WATCH_ENTRIES:
            raise BudgetExceededError(
                f"pair tables need {len(pairs) * n} entries, limit {_MAX_WATCH_ENTRIES}"
            )

        # S, the largest sphere, bounds every count; balanced digits need 2S+1
        base = 2 * max(max(row, default=0) for row in spheres) + 1
        power = [0] + [base**i for i in range(dm.diameter)]
        self.pair_count = len(pairs)
        self.updates = [[] for _ in range(n)]
        self.finalize_at = [[] for _ in range(n)]
        for p, (u, v) in enumerate(pairs):
            # w = u and w = v always enter: each sees itself at 0, the other not
            for w in range(n):
                i, j = dist[u][w], dist[v][w]
                if i != j:
                    self.updates[w].append((p, power[i], power[j]))
                    last = w
            self.finalize_at[last].append(p)

    def search_level(self, rule, level: int, counted: int, budget: int):
        """First labelling in ``rule`` order that separates every pair.

        ``rule(n, level, w, used)`` lists vertex ``w``'s ``(label, used
        after)`` options last-first; labels from ``counted`` up add nothing.
        Returns ``(labels or None, nodes)``; ``nodes > budget`` if it ran out.
        """
        n = self.n
        # rows[c][p]: pair p's integer for class c
        rows = [[0] * self.pair_count for _ in range(counted)]
        assign = [-1] * n
        nodes = 0
        updates = self.updates
        finalize_at = self.finalize_at
        twin_prev = self.twin_prev

        # pending[w]: the options of vertex w not tried yet; assign[w] is the
        # label w holds, -1 once it is taken back
        pending = [None] * n
        pending[0] = rule(n, level, 0, 0)
        w = 0
        while w >= 0:
            c = assign[w]
            if c >= 0:
                assign[w] = -1
                if c < counted:
                    row = rows[c]
                    for p, a, b in updates[w]:
                        row[p] -= a - b
            if not pending[w]:
                w -= 1
                continue
            c, used = pending[w].pop()
            for t in twin_prev[w]:
                if assign[t] == c:
                    break
            else:  # no twin of w holds c
                nodes += 1
                if nodes > budget:
                    return None, nodes
                assign[w] = c
                if c < counted:
                    row = rows[c]
                    for p, a, b in updates[w]:
                        row[p] += a - b
                for p in finalize_at[w]:
                    for r in rows:
                        if r[p]:
                            break
                    else:  # pair p is 0 on every class: it collides
                        break
                else:  # no pair finalised at w collides
                    if w == n - 1:
                        return assign, nodes
                    w += 1
                    pending[w] = rule(n, level, w, used)
        return None, nodes


def _partition_labels(n: int, k: int, w: int, used: int):
    """Restricted-growth strings with exactly ``k`` classes, ``used`` of
    them opened before vertex ``w``: lexicographic order."""
    lo = used if used + n - w == k else 0
    hi = used if used < k else k - 1
    return [(c, used + 1 if c == used else used) for c in range(hi, lo - 1, -1)]


def _red_set_labels(n: int, r: int, w: int, used: int):
    """Red sets of exactly ``r`` vertices, ``used`` red before vertex ``w``:
    red (0) before white (1), the sorted sets in lexicographic order."""
    options = [(1, used)] if n - w - 1 >= r - used else []
    if used < r:
        options.append((0, used + 1))
    return options


def id_index_exact(g: Graph, max_nodes: int = DEFAULT_MAX_NODES) -> IdIndexCertificate:
    """Minimum number of distinct ranks, with a verified certificate.

    Iterates the class count ``k`` upward from the sphere-counting lower
    bound, exhausting each level before moving on; the returned partition
    is the lexicographically least feasible restricted-growth string at the
    optimal ``k``.  Raises ``BudgetExceededError`` (with the certified
    bracket) after ``max_nodes`` search nodes, ``DisconnectedError`` for
    disconnected input.
    """
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
    # pairs whose sphere sizes (strings under all-one ranks) differ always separate
    spheres = string_table(dm, RankAssignment((1,) * g.n))
    start = counting_lower_bound(spheres, lower)
    watcher = _PairWatcher(dm, tc, spheres, spheres)
    total_nodes = 0
    prev_level_nodes = 0
    for k in range(start, g.n + 1):
        assign, nodes = watcher.search_level(
            _partition_labels, k, k, max_nodes - total_nodes
        )
        total_nodes += nodes
        if total_nodes > max_nodes:
            upper = _greedy_upper_bound(dm, tc, 0).k
            raise BudgetExceededError(
                f"node budget {max_nodes} exhausted; answer in [{k}, {upper}]",
                lower=k,
                upper=upper,
                nodes=total_nodes,
            )
        if assign is not None:
            p = Partition(tuple(assign), k)
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
            elif k == start:
                witness = InfeasibilityWitness(k - 1, "counting-bound", 0)
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


def id_number_exact(g: Graph, max_nodes: int = DEFAULT_MAX_NODES) -> IdNumberResult:
    """Smallest red set whose codes identify all vertices, if any.

    Searches red sets by increasing size, so the first hit is the
    lexicographically least minimum witness.  A counting bound of 3 or more
    (three or more mutual twins, for one) rules out every red set, so such
    graphs are not identifiable at once.  Raises ``BudgetExceededError``
    after ``max_nodes`` search nodes over all red-set sizes.
    """
    dm = all_pairs_distances(g)
    tc = tuplet_classes(g)
    spheres = string_table(dm, RankAssignment((1,) * g.n))
    if counting_lower_bound(spheres, tc.max_size) >= 3:
        return IdNumberResult(False, None, None)
    # red-only codes can collide even where sphere sizes differ: watch all pairs
    watcher = _PairWatcher(dm, tc, spheres, [0] * g.n)
    total_nodes = 0
    for r in range(1, g.n + 1):
        labels, nodes = watcher.search_level(
            _red_set_labels, r, 1, max_nodes - total_nodes
        )
        total_nodes += nodes
        if total_nodes > max_nodes:
            raise BudgetExceededError(
                f"node budget {max_nodes} exhausted at red-set size {r}",
                nodes=total_nodes,
            )
        if labels is not None:
            red = frozenset(v for v in range(g.n) if labels[v] == 0)
            coloring = RedWhiteColoring(g.n, red)
            if not is_distinguishing(code_table(dm, coloring)):
                raise InternalInvariantError("red set fails code re-verification")
            return IdNumberResult(True, r, coloring)
    return IdNumberResult(False, None, None)


def greedy_upper_bound(g: Graph, seed: int = 0) -> IdIndexCertificate:
    """Verified upper bound by repeated class splitting.

    Starts from the coarsest twin-respecting partition (member ``j`` of
    each twin class goes to class ``j``) and, while some pair collides,
    moves one endpoint of the first colliding pair into a fresh class.
    The endpoint is drawn with a seeded RNG among those whose class still
    has at least two members, so runs are reproducible.  All-singletons
    always identifies, so this terminates with ``k <= n``; the bound is the
    certificate's ``k``.
    """
    return _greedy_upper_bound(all_pairs_distances(g), tuplet_classes(g), seed)


def _greedy_upper_bound(
    dm: DistanceMatrix, tc: TupletClasses, seed: int
) -> IdIndexCertificate:
    """``greedy_upper_bound`` on distances and twin classes already computed."""
    rng = random.Random(seed)
    labels = [0] * len(dm.dist)
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
    return IdIndexCertificate(
        k=p.k,
        partition=p,
        ranks=ranks,
        strings=strings,
        lower_bound=tc.max_size,
        infeasibility=None,
        nodes_searched=0,
    )
