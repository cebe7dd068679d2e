"""Certificate checker for ``idindex compute`` output.

It shares no code with ``idindex.solvers`` or ``idindex.strings_codes``: it
runs its own BFS, recomputes each vertex's distance-sum string (or red
count code) from the emitted ranks (or red set), and checks the claims the
output makes.  Every check returns a list of problems; empty means valid.
"""

from __future__ import annotations

from collections import deque


def distances(adj) -> list[list[int]]:
    """Hop distances from every vertex; raises ValueError if disconnected."""
    n = len(adj)
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        if min(row) < 0:
            raise ValueError("graph is disconnected")
        rows.append(row)
    return rows


def sphere_sums(dist, weights) -> list[tuple[int, ...]]:
    """Per vertex, the sum of ``weights`` over the vertices at distance
    1, 2, ..., diameter."""
    diam = max(max(row) for row in dist)
    out = []
    for row in dist:
        sums = [0] * diam
        for w, d in enumerate(row):
            if d:
                sums[d - 1] += weights[w]
        out.append(tuple(sums))
    return out


def _distinct(rows) -> bool:
    return len(set(rows)) == len(rows)


def _rank_certificate(adj, out: dict, k: int) -> list[str]:
    """Shared checks of an exact or greedy certificate with ``k`` classes."""
    n = len(adj)
    try:
        ranks = [int(r) for r in out["ranks"]]
        partition = [int(c) for c in out["partition"]]
        strings = [tuple(int(x) for x in row) for row in out["strings"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {exc!r}"]
    if not (len(ranks) == len(partition) == len(strings) == n):
        return [f"certificate lengths {len(ranks)}/{len(partition)}/{len(strings)} for n={n}"]
    problems = []
    if len(set(ranks)) != k:
        problems.append(f"{len(set(ranks))} distinct ranks but k={k}")
    classes = {}
    for c, r in zip(partition, ranks):
        if classes.setdefault(c, r) != r:
            problems.append(f"class {c} holds two rank values")
            break
    if len(set(classes.values())) != len(classes):
        problems.append("two classes share a rank value")
    if partition != _restricted_growth(partition):
        problems.append("partition is not in restricted-growth form")
    if max(partition) + 1 != k:
        problems.append(f"partition has {max(partition) + 1} classes but k={k}")
    recomputed = sphere_sums(distances(adj), ranks)
    if recomputed != strings:
        problems.append("emitted strings differ from strings recomputed from the ranks")
    if not _distinct(recomputed):
        problems.append("two vertices share a string")
    return problems


def _restricted_growth(labels) -> list[int]:
    first = {}
    return [first.setdefault(c, len(first)) for c in labels]


def check_exact(adj, out: dict, ref: dict | None) -> list[str]:
    """``compute`` output; ``ref`` holds the frozen ``k`` and partition."""
    k = out.get("k")
    if not isinstance(k, int):
        return [f"k is {k!r}"]
    problems = _rank_certificate(adj, out, k)
    if not isinstance(out.get("lower_bound"), int) or out["lower_bound"] > k:
        problems.append(f"lower bound {out.get('lower_bound')!r} above k={k}")
    if ref is not None:
        if k != ref["k"]:
            problems.append(f"k={k}, reference k={ref['k']}")
        elif out["partition"] != ref["partition"]:
            problems.append("partition differs from the reference lex-least partition")
    return problems


def check_heuristic(adj, out: dict, exact_k: int | None) -> list[str]:
    """``compute --heuristic`` output; its bound may not undercut the
    exact ``k`` of the same graph, when known."""
    k = out.get("k_upper")
    if not isinstance(k, int):
        return [f"k_upper is {k!r}"]
    problems = _rank_certificate(adj, out, k)
    if exact_k is not None and k < exact_k:
        problems.append(f"greedy k_upper={k} below the exact k={exact_k}")
    return problems


def check_id_number(adj, out: dict, ref: dict | None) -> list[str]:
    """``compute --id-number`` output; ``ref`` holds the frozen answer."""
    problems = []
    n = len(adj)
    if out.get("is_id_graph") is True:
        red = out.get("red")
        if not isinstance(red, list) or not red:
            return [f"red set is {red!r}"]
        if len(set(red)) != len(red) or not all(isinstance(v, int) and 0 <= v < n for v in red):
            return [f"red set {red!r} is not a set of vertices"]
        if len(red) != out.get("id_number"):
            problems.append(f"red set has {len(red)} vertices but id_number={out.get('id_number')!r}")
        members = set(red)
        codes = sphere_sums(distances(adj), [1 if v in members else 0 for v in range(n)])
        if not _distinct(codes):
            problems.append("two vertices share a code")
    elif out.get("is_id_graph") is False:
        if out.get("id_number") is not None or out.get("red") is not None:
            problems.append("not an ID graph, yet a red set or id_number is given")
    else:
        return [f"is_id_graph is {out.get('is_id_graph')!r}"]
    if ref is not None:
        for key in ("is_id_graph", "id_number", "red"):
            if out.get(key) != ref[key]:
                problems.append(f"{key}={out.get(key)!r}, reference {ref[key]!r}")
    return problems
