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
``r`` vertices, red before white, for ``id_number_exact``.  A rule gives
each vertex's options as a tuple in the order they are tried, built once
per vertex and count of labels used.  The search prunes by

* twins: vertices with equal open or closed neighbourhoods see every other
  vertex at equal distance, so two same-label twins can never separate;
* pair watching: for each unordered pair that could ever collide, the
  search keeps per counted class one fixed-width field whose balanced
  digits are the running count differences, one digit per distance in a
  radix that fits that distance's largest sphere, and kills a branch as
  soon as the last vertex able to separate a pair is placed while that
  field is zero on every class.  The fields of one class are packed into
  a single integer, so placing a vertex is one big-int add and the pairs
  it completes are checked with one zero-field test.  Each depth keeps
  its own integers, so taking a vertex back costs nothing;
* red-set look-ahead: only reds change a field, so once the last red of a
  size is placed every field is final, and the red-set search tests the
  whole integer for a zero field at once instead of walking the forced
  whites to each pair's last separator.  This is the resolving-set
  argument (Slater 1975; Harary & Melter 1976): a pair that no red
  separates keeps equal codes.

Label 0 is never counted.  The partition search counts classes ``1..k-1``;
class 0 is implied.  It watches only pairs with equal sphere rows, and
once a pair is complete its count differences, summed over all ``k``
classes, are its sphere differences, all zero.  So any one class's field
is zero exactly when the other ``k - 1`` are, and class 0 is the one the
lexicographic order places most often.  The red-set search watches pairs
whose sphere rows differ too, so it counts its one class, red, as label 1
and leaves white as label 0.  A vertex's packed field change is built the
first time a counted label is placed on it, and kept.

``_PairWatcher.search`` runs the levels of both searches in one loop with
one node count, so each raises ``BudgetExceededError`` after ``max_nodes``
nodes over all levels, ``DEFAULT_MAX_NODES`` unless the caller gives a
budget.  Results are plain values; ``cli`` writes them as JSON.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from itertools import accumulate
from math import comb
from operator import itemgetter, mul

from .graphs import Graph, DistanceMatrix, all_pairs_distances
from .strings_codes import code_table, first_collision, is_distinguishing, string_table
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


class Partition(namedtuple("Partition", "assignment k")):
    """Vertex partition in restricted-growth form, a named tuple.

    ``assignment[v]`` is the class of vertex ``v``; class labels appear in
    first-use order starting from 0, and ``k`` is the number of classes.
    Making one, or unpickling one at protocol 2 or higher, checks both.
    """

    __slots__ = ()

    def __new__(cls, assignment: tuple[int, ...], k: int):
        if not assignment:
            raise ValueError("empty partition")
        mx = -1
        for a in assignment:
            if a < 0 or a > mx + 1:
                raise ValueError("assignment is not in restricted-growth form")
            if a == mx + 1:
                mx = a
        if k != mx + 1:
            raise ValueError(f"k={k} but {mx + 1} classes are used")
        return super().__new__(cls, assignment, k)


def to_restricted_growth(labels) -> Partition:
    """Relabel an arbitrary class labelling into restricted-growth form."""
    seen: dict = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return Partition(tuple(out), len(seen))


def certificate_ranks(p: Partition) -> tuple[int, ...]:
    """Geometric witness ranks: class ``c`` gets ``(n+1)^c``."""
    base = len(p.assignment) + 1
    powers = [base**c for c in range(p.k)]
    return tuple(powers[c] for c in p.assignment)


class InfeasibilityWitness(namedtuple("InfeasibilityWitness", "level certified_by nodes")):
    """Certification that no partition with ``level`` classes identifies,
    a named tuple.

    ``certified_by`` is ``exhaustive-search`` (the level was searched to
    completion), ``tuplet-bound`` (some twin class is larger than
    ``level``), ``counting-bound`` (``level`` classes allow fewer count
    matrices than some group of vertices with equal sphere sizes has
    members; ``nodes`` is 0), or ``vacuous`` (``level`` is 0).
    """

    __slots__ = ()


class IdIndexCertificate(
    namedtuple(
        "IdIndexCertificate",
        "k partition ranks strings lower_bound infeasibility nodes_searched note",
        defaults=(None,),
    )
):
    """Result of ``id_index_exact``, a named tuple; ``greedy_upper_bound``
    fills the same fields with ``infeasibility`` None.

    ``lower_bound`` is the twin bound T, the largest twin class, even where
    the search started higher at the counting bound: the JSON
    ``lower_bound`` and the sweep columns report T.
    """

    __slots__ = ()


# refuse a watcher of more than this many (pair, vertex) entries, which
# bounds the fields a search holds: the packed deltas it keeps, at most one
# per vertex, and its per-depth states, at most one new packed integer per
# depth, so n fields per pair for each; a field's bytes grow with the
# diameter; cycle:120, watching every pair, needs 856,800
_MAX_WATCH_ENTRIES = 4_000_000


class _Deltas(dict):
    """``deltas[w]``: every pair's field change when ``w`` joins a class,
    packed on first use and kept.

    It holds the distance rows and the pairs' endpoint getters but not the
    watcher, so a watcher and its deltas form no reference cycle and are
    freed as soon as the search drops the watcher.
    """

    __slots__ = ("dist", "chunk", "u_at", "v_at")

    def __init__(self, dist, chunk, u_at, v_at):
        super().__init__()
        self.dist, self.chunk, self.u_at, self.v_at = dist, chunk, u_at, v_at

    def __missing__(self, w: int) -> int:
        row, chunk = self.dist[w], self.chunk
        up = b"".join(itemgetter(*self.u_at(row))(chunk))
        down = b"".join(itemgetter(*self.v_at(row))(chunk))
        delta = self[w] = int.from_bytes(up, "little") - int.from_bytes(down, "little")
        return delta


class _PairWatcher:
    """Shared per-graph structures for the level searches.

    The watched pairs are the unordered non-twin pairs (u, v) with ``key[u]
    == key[v]``; with ``key = dm.spheres`` other pairs always separate, and a
    complete pair's fields sum to zero over all classes, so a search may
    leave class 0 uncounted.  Per counted class ``c`` the search keeps one
    integer with one ``width``-bit field per pair, SWAR style: pair ``p``'s
    field holds ``bias`` plus the mixed-radix number whose digit ``i-1`` is
    N_i(u, c) - N_i(v, c) in radix ``R_i = S_i + 1``, where ``S_i`` is the
    largest sphere at distance ``i``, the column maximum of ``dm.spheres``.
    Digit ``i-1`` has place value ``P_i = R_1 ... R_(i-1)`` and lies in
    ``[-S_i, S_i]``.  Since ``S_1 P_1 + ... + S_(i-1) P_(i-1) = P_i - 1``,
    the top nonzero digit outweighs all below it, so the number is 0 only
    if every digit is, and a field equals ``bias`` exactly when the pair
    has the same counts on ``c``.  With ``d`` digits (the diameter) the
    number lies in ``[-bias, bias]`` for ``bias = R_1 ... R_d - 1``, so a
    field stays in ``[0, 2 bias]`` and no add reaches its neighbour; a
    guard bit on top, rounded up to whole bytes, keeps the zero test exact.

    ``delta_of(w)`` is the change of every field when ``w`` joins a class,
    ``P_d(u,w) - P_d(v,w)`` per pair with ``P_0`` read as 0, since no vertex
    counts itself: placing ``w`` is one add.  A ``_Deltas`` memo packs it
    the first time ``w`` takes a counted label and keeps it.  Pairs
    are numbered by the last vertex that tells their endpoints apart, so
    the pairs complete once ``w`` is placed form one field range, and
    ``finalize[w]`` holds its shift and masks.

    The red-set look-ahead needs neither a shift nor a mask per vertex.
    When the last red is placed at ``w``, every pair whose last separator
    is below ``w`` has passed its ``finalize`` test on this branch, and no
    vertex after its last separator changes its field.  So a zero field
    anywhere in the integer belongs to a pair complete at ``w`` or still
    open, and since no red follows, either fails: the test runs on the
    whole integer, with the masks ``bias_all``, ``high_all`` and
    ``low_all`` of every field.
    """

    def __init__(self, dm: DistanceMatrix, tc: TupletClasses, key):
        n = len(dm.dist)
        dist = dm.dist
        self.n = n

        # twin_prev[v]: the members of v's twin class below v
        twin_prev = self.twin_prev = [()] * n
        for cls in tc.classes:
            for i, v in enumerate(cls.members):
                twin_prev[v] = cls.members[:i]
        groups: dict = {}
        for v in range(n):
            groups.setdefault(key[v], []).append(v)
        # a group of one vertex has no pair to watch
        groups = [members for members in groups.values() if len(members) > 1]
        # twins share every key, so each twin pair lies inside one group
        pair_count = sum(
            comb(len(members), 2) - sum(len(twin_prev[v]) for v in members)
            for members in groups
        )
        if pair_count * n > _MAX_WATCH_ENTRIES:
            raise BudgetExceededError(
                f"pair tables need {pair_count * n} entries, limit {_MAX_WATCH_ENTRIES}"
            )
        pairs = []
        for members in groups:
            for i, v in enumerate(members):
                # as a set, so a pair costs one test however large v's twin class
                twins = set(twin_prev[v])
                for u in members[:i]:
                    if u not in twins:
                        du, dv = dist[u], dist[v]
                        last = n - 1  # w = u and w = v always tell them apart
                        while du[last] == dv[last]:
                            last -= 1
                        pairs.append((last, u, v))
        pairs.sort()
        self.pairs = [(u, v) for _, u, v in pairs]
        # the pairs' u (v) distances from a row; two padding pairs (0, 0)
        # make itemgetter return a tuple for any pair count, and they add
        # the same chunks to both sides of a delta, which cancel
        u_at = itemgetter(*(u for u, _ in self.pairs), 0, 0)
        v_at = itemgetter(*(v for _, v in self.pairs), 0, 0)

        # digit i-1 counts distance i, in radix S_i + 1 for S_i the largest
        # sphere at distance i; place[i] is digit i's place value
        radix = [max(col) + 1 for col in zip(*set(dm.spheres))]
        place = list(accumulate(radix, mul, initial=1))
        bias = self.bias = place.pop() - 1
        size = (2 * bias).bit_length() // 8 + 1  # bytes, guard bit included
        width = self.width = 8 * size
        chunk = [bytes(size)] + [p.to_bytes(size, "little") for p in place]

        def fields(m: int) -> tuple[int, int, int]:
            """The bias, guard bits and low bits of ``m`` fields."""
            low = int.from_bytes((1).to_bytes(size, "little") * m, "little")
            return bias * low, low << width - 1, low

        self.bias_all, self.high_all, self.low_all = fields(len(pairs))
        # finalize[w]: (shift, value mask, bias, guard bits, low bits) of the
        # pairs complete once w is placed, or None
        self.finalize = [None] * n
        lo = 0
        for w, m in sorted(Counter(last for last, _, _ in pairs).items()):
            self.finalize[w] = (lo * width, (1 << m * width) - 1, *fields(m))
            lo += m
        self.delta_of = _Deltas(dist, chunk, u_at, v_at).__getitem__

    def search(self, rule, levels, max_nodes: int, look_ahead: bool = False):
        """First labelling in ``rule`` order that separates every pair, at
        the first of the ``(level, counted)`` pairs ``levels`` that has one.

        ``rule(n, level, w, used)`` gives vertex ``w``'s ``(label, used
        after)`` options as a tuple in try order, built once per level and
        ``(w, used)``.  Labels ``1..counted`` each count one class; label 0
        adds nothing (see the class docstring).  Returns ``(level, labels,
        nodes, last)``: ``nodes`` counts over all levels, ``last`` over the
        level before ``level``.  ``labels`` is None if ``nodes > max_nodes``,
        and ``level`` too if no level has one.

        ``look_ahead`` is for one counted class whose labels ``used``
        counts, as in the red-set rule: the counted placement that makes
        ``used == level`` is the last, and it tests every field of
        ``packed[0]`` for zero in place of ``finalize[w]`` (see the class
        docstring).
        """
        n = self.n
        delta_of = self.delta_of
        finalize = self.finalize
        twin_prev = self.twin_prev
        bias_all, high_all, low_all = self.bias_all, self.high_all, self.low_all
        nodes = start = last = 0
        for level, counted in levels:
            last, start = nodes - start, nodes
            # at[w][c - 1]: every pair's field for class c once vertices
            # 0..w-1 are placed; a counted label changes a copy, so taking a
            # vertex back just returns to the list of its depth
            at = [None] * n
            at[0] = [bias_all] * counted
            assign = [-1] * n
            # options[w][used]: rule's tuple for vertex w, built on first use
            options = [{} for _ in range(n)]

            # pending[w]: an iterator over the options of vertex w not tried
            # yet; assign[w] is the label w holds while w is on the path
            pending = [None] * n
            pending[0] = iter(rule(n, level, 0, 0))
            w = 0
            while w >= 0:
                option = next(pending[w], None)
                if option is None:
                    w -= 1
                    continue
                c, used = option
                for t in twin_prev[w]:
                    if assign[t] == c:
                        break
                else:  # no twin of w holds c
                    nodes += 1
                    if nodes > max_nodes:
                        return level, None, nodes, last
                    assign[w] = c
                    packed = at[w]
                    if c:
                        packed = packed.copy()
                        packed[c - 1] += delta_of(w)
                    # field ^ bias is zero exactly on a pair equal on the
                    # class, and its guard bit is clear; subtracting the low
                    # bits sets a guard bit exactly when some field is zero
                    # (the lowest zero field's, whatever borrows above it)
                    if look_ahead and c and used == level:
                        if ((packed[0] ^ bias_all) - low_all) & high_all:
                            continue
                    elif finalize[w] is not None:
                        shift, mask, bias, high, low = finalize[w]
                        x = 0  # zero in a field only where every class is
                        for y in packed:
                            x |= ((y >> shift) & mask) ^ bias
                        if (x - low) & high:
                            continue
                    if w == n - 1:
                        return level, assign, nodes, last
                    w += 1
                    at[w] = packed
                    cache = options[w]
                    opts = cache.get(used)
                    if opts is None:
                        opts = cache[used] = rule(n, level, w, used)
                    pending[w] = iter(opts)
        return None, None, nodes, last


def _partition_labels(n: int, k: int, w: int, used: int):
    """Restricted-growth strings with exactly ``k`` classes, ``used`` of
    them opened before vertex ``w``: lexicographic order."""
    lo = used if used + n - w == k else 0
    hi = used if used < k else k - 1
    # tuple() of a list comprehension builds faster than of a generator
    return tuple([(c, used + 1 if c == used else used) for c in range(lo, hi + 1)])


def _red_set_labels(n: int, r: int, w: int, used: int):
    """Red sets of exactly ``r`` vertices, ``used`` red before vertex ``w``:
    red (1) before white (0), the sorted sets in lexicographic order."""
    red = ((1, used + 1),) if used < r else ()
    white = ((0, used),) if n - w - 1 >= r - used else ()
    return red + white


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
        witness = InfeasibilityWitness(0, "vacuous", 0)
        return _certificate(dm, Partition((0,), 1), 1, witness, 0, "by convention")
    tc = tuplet_classes(g)
    lower = tc.max_size
    # pairs whose sphere sizes differ always separate
    start = counting_lower_bound(dm.spheres, lower)
    watcher = _PairWatcher(dm, tc, dm.spheres)
    # class 0 is implied by the other k - 1 on pairs of equal spheres
    levels = ((k, k - 1) for k in range(start, g.n + 1))
    k, assign, nodes, last = watcher.search(_partition_labels, levels, max_nodes)
    if nodes > max_nodes:
        upper = _greedy_upper_bound(dm, tc, 0).k
        raise BudgetExceededError(
            f"node budget {max_nodes} exhausted; answer in [{k}, {upper}]",
            lower=k,
            upper=upper,
            nodes=nodes,
        )
    if assign is None:
        raise InternalInvariantError("no identifying partition up to k = n")
    if k == lower:  # then k == start, the first level, where last is 0
        by = "vacuous" if k == 1 else "tuplet-bound"
    else:
        by = "counting-bound" if k == start else "exhaustive-search"
    witness = InfeasibilityWitness(k - 1, by, last)
    return _certificate(dm, Partition(tuple(assign), k), lower, witness, nodes)


def _certificate(dm, p, lower, witness, nodes, note=None) -> IdIndexCertificate:
    """Certificate of the exact answer ``p``, its strings re-verified."""
    ranks = certificate_ranks(p)
    strings = string_table(dm, ranks)
    if not is_distinguishing(strings):
        raise InternalInvariantError("certificate ranks fail string re-verification")
    return IdIndexCertificate(p.k, p, ranks, strings, lower, witness, nodes, note)


def id_number_exact(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES
) -> frozenset[int] | None:
    """Smallest red set whose codes identify all vertices, or None.

    None means the graph is not an ID graph; otherwise the ID number is the
    size of the returned set.  Searches red sets by increasing size, so the
    first hit is the lexicographically least minimum witness.  A counting
    bound of 3 or more (three or more mutual twins, for one) rules out every
    red set, so such graphs are not identifiable at once.  Raises
    ``BudgetExceededError`` after ``max_nodes`` search nodes over all
    red-set sizes.
    """
    dm = all_pairs_distances(g)
    tc = tuplet_classes(g)
    if counting_lower_bound(dm.spheres, tc.max_size) >= 3:
        return None
    # red-only codes can collide even where sphere sizes differ: watch all pairs
    watcher = _PairWatcher(dm, tc, [0] * g.n)
    levels = ((r, 1) for r in range(1, g.n + 1))
    r, labels, nodes, _ = watcher.search(_red_set_labels, levels, max_nodes, look_ahead=True)
    if nodes > max_nodes:
        raise BudgetExceededError(
            f"node budget {max_nodes} exhausted at red-set size {r}", nodes=nodes
        )
    if labels is None:
        return None
    red = frozenset(v for v in range(g.n) if labels[v] == 1)
    if not is_distinguishing(code_table(dm, red)):
        raise InternalInvariantError("red set fails code re-verification")
    return red


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
        for j, v in enumerate(cls.members):
            labels[v] = j
    while True:
        p = to_restricted_growth(labels)
        ranks = certificate_ranks(p)
        strings = string_table(dm, ranks)
        pair = first_collision(strings)
        if pair is None:  # this pass verified the certificate's own strings
            return IdIndexCertificate(p.k, p, ranks, strings, tc.max_size, None, 0)
        del strings  # so that two tables are never held at once
        labels = list(p.assignment)
        candidates = [x for x in pair if labels.count(labels[x]) >= 2]
        if not candidates:
            raise InternalInvariantError("colliding pair of two singleton classes")
        pick = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        labels[pick] = p.k  # fresh class
