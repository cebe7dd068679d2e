"""Named graph families with stable vertex numbering.

Every generator fixes a canonical layout so that solver output, closed-form
rank constructions and tests all agree on which vertex is which:

* paths/cycles: vertices in walk order;
* complete multipartite: parts occupy consecutive id blocks, in given order;
* caterpillars: spine first (in path order), then leaves grouped by spine
  vertex, ascending;
* Cartesian products: pair ``(g, h)`` gets id ``h * |G| + g``; one product
  builder serves ``product``, grids (``path(m) x path(n)``) and prisms
  (``cycle(n) x path(2)``), which keep their own role tags.

Alongside the graph, ``generate`` returns ``roles``, a tuple indexed by
vertex id that tags each vertex with its structural role, so downstream
code never has to re-derive the numbering conventions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations, pairwise

from .graphs import Graph, build_graph, check_vertex_count, is_connected


class InvalidSpecError(ValueError):
    """Malformed or out-of-domain family description."""


# products nest at most this deep: a deeper product whose factors all have
# two or more vertices has more than 2^64 vertices
_MAX_PRODUCT_DEPTH = 64


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters.

    ``params`` holds integers, except for ``product`` where it holds the two
    factor specs.  Instances render back to the CLI grammar via ``label``.
    """

    kind: str
    params: tuple = ()

    def label(self) -> str:
        if self.kind == "petersen":
            return "petersen"
        if self.kind == "grid":
            return "grid:{}x{}".format(*self.params)
        if self.kind == "product":
            a, b = self.params
            return f"product:({a.label()})x({b.label()})"
        return self.kind + ":" + ",".join(str(p) for p in self.params)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the ``kind:params`` grammar used on the command line.

    Examples: ``path:7``, ``grid:3x4``, ``multipartite:1,2,3``,
    ``caterpillar:2,4,2,2,4,2``, ``petersen``,
    ``product:(cycle:5)x(path:2)``.
    """
    text = text.strip()
    if not text:
        raise InvalidSpecError("empty family spec")
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if kind == "petersen":
        if sep:
            raise InvalidSpecError("petersen takes no parameters")
        return _validated(FamilySpec("petersen"))
    if not sep or not rest:
        raise InvalidSpecError(f"missing parameters in {text!r}")
    if kind == "product":
        # depth[i]: the parentheses open after rest[i]; each factor sits in its
        # own parentheses, so the deepest is the nesting
        depth = list(accumulate((ch == "(") - (ch == ")") for ch in rest))
        if max(depth) > _MAX_PRODUCT_DEPTH:
            raise InvalidSpecError(f"products nest at most {_MAX_PRODUCT_DEPTH} deep")
        return _validated(FamilySpec("product", _parse_factors(rest, depth)))
    if kind == "grid":
        dims = rest.split("x")
        if len(dims) != 2:
            raise InvalidSpecError(f"grid wants MxN, got {rest!r}")
        return _validated(FamilySpec("grid", _int_tuple(dims, text)))
    return _validated(FamilySpec(kind, _int_tuple(rest.split(","), text)))


def _int_tuple(parts, context):
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidSpecError(f"non-integer parameter in {context!r}") from None


def _parse_factors(rest: str, depth: list[int]):
    # grammar: (A)x(B) with A, B themselves family specs, possibly nested.
    # When rest opens with "(" its depth starts at 1, so the first 0 is at
    # the ")" that closes A; otherwise split is 0, which that ")" never is
    split = depth.index(0) if rest[0] == "(" and 0 in depth else 0
    if not (split and rest.startswith("x(", split + 1) and rest.endswith(")")):
        raise InvalidSpecError(f"product wants (A)x(B), got {rest!r}")
    return (parse_family_spec(rest[1:split]), parse_family_spec(rest[split + 3 : -1]))


def _validated(spec: FamilySpec) -> FamilySpec:
    """``spec`` itself once its parameters and its vertex count, at most
    ``MAX_VERTICES``, are checked; no graph is built."""
    check_vertex_count(_vertex_count(spec))
    return spec


def _vertex_count(spec: FamilySpec) -> int:
    """The vertex count of ``spec``, after checking its parameters."""
    kind, p = spec.kind, spec.params
    if kind not in _GENERATORS:
        raise InvalidSpecError(f"unknown family kind {kind!r}")
    if kind in ("path", "cycle", "complete", "prism"):
        if len(p) != 1:
            raise InvalidSpecError(f"{kind} takes exactly one parameter")
        n = p[0]
        if kind in ("path", "complete") and n < 1:
            raise InvalidSpecError(f"{kind} needs n >= 1")
        if kind in ("cycle", "prism") and n < 3:
            raise InvalidSpecError(f"{kind} needs n >= 3")
        return 2 * n if kind == "prism" else n
    if kind == "multipartite":
        if len(p) < 2:
            raise InvalidSpecError("multipartite needs at least two parts")
        if any(m < 1 for m in p):
            raise InvalidSpecError("multipartite part sizes must be >= 1")
        return sum(p)
    if kind == "grid":
        if len(p) != 2 or p[0] < 1 or p[1] < 1:
            raise InvalidSpecError("grid needs two sides >= 1")
        return p[0] * p[1]
    if kind == "caterpillar":
        if len(p) < 1:
            raise InvalidSpecError("caterpillar needs at least one spine vertex")
        if any(c < 0 for c in p):
            raise InvalidSpecError("leaf counts must be >= 0")
        if p[0] < 1 or p[-1] < 1:
            raise InvalidSpecError("first and last spine vertices need a leaf")
        return len(p) + sum(p)
    if kind == "product":
        if len(p) != 2 or not all(isinstance(f, FamilySpec) for f in p):
            raise InvalidSpecError("product needs two factor specs")
        return _vertex_count(p[0]) * _vertex_count(p[1])
    if p:
        raise InvalidSpecError("petersen takes no parameters")
    return 10


def generate(spec: FamilySpec) -> tuple[Graph, tuple[tuple, ...]]:
    """Build the graph and per-vertex role tags for a validated spec."""
    _validated(spec)
    return _GENERATORS[spec.kind](spec)


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Seeded G(n, 1/2) sample, made connected by adding absent edges."""
    check_vertex_count(n)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.add((u, v))
    g = build_graph(n, edges)
    while not is_connected(g):
        absent = sorted(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        )
        edges.add(rng.choice(absent))
        g = build_graph(n, edges)
    return g


def _path(spec):
    (n,) = spec.params
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return g, tuple(("path", i) for i in range(n))


def _cycle(spec):
    (n,) = spec.params
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return g, tuple(("cycle", i) for i in range(n))


def _complete(spec):
    (n,) = spec.params
    g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return g, tuple(("complete", i) for i in range(n))


def _multipartite(spec):
    sizes = spec.params
    parts = [range(a, b) for a, b in pairwise(accumulate(sizes, initial=0))]
    edges = [(u, v) for pu, pv in combinations(parts, 2) for u in pu for v in pv]
    roles = tuple(("part", p, j) for p, m in enumerate(sizes) for j in range(m))
    return build_graph(sum(sizes), edges), roles


def _product_of(sa: FamilySpec, sb: FamilySpec):
    """The Cartesian product of the graphs of ``sa`` and ``sb``, with the
    roles of both factors: pair ``(g, h)`` gets id ``h * |G| + g``."""
    ga, roles_a = generate(sa)
    gb, roles_b = generate(sb)
    na = ga.n
    edges_a = list(ga.edges())
    edges = []
    for h in range(gb.n):
        base = h * na
        edges.extend((base + u, base + v) for u, v in edges_a)
    for u, v in gb.edges():
        base_u, base_v = u * na, v * na
        edges.extend((base_u + g, base_v + g) for g in range(na))
    return build_graph(na * gb.n, edges), roles_a, roles_b


def _product(spec):
    g, roles_a, roles_b = _product_of(*spec.params)
    return g, tuple(("product", a, b) for b in roles_b for a in roles_a)


def _grid(spec):
    m, n = spec.params
    g, _, _ = _product_of(FamilySpec("path", (m,)), FamilySpec("path", (n,)))
    return g, tuple(("grid", v % m, v // m) for v in range(m * n))


def _prism(spec):
    (n,) = spec.params
    g, _, _ = _product_of(FamilySpec("cycle", (n,)), FamilySpec("path", (2,)))
    return g, tuple(("prism", v % n, v // n) for v in range(2 * n))


def _petersen(spec):
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer 5-cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    roles = tuple(("outer", i) for i in range(5)) + tuple(
        ("inner", i) for i in range(5)
    )
    return build_graph(10, edges), roles


def _caterpillar(spec):
    counts = spec.params
    n_spine = len(counts)
    edges = [(i, i + 1) for i in range(n_spine - 1)]
    roles = [("spine", i) for i in range(n_spine)]
    nxt = n_spine
    for i, li in enumerate(counts):
        for j in range(li):
            edges.append((i, nxt))
            roles.append(("leaf", i, j))
            nxt += 1
    return build_graph(nxt, edges), tuple(roles)


_GENERATORS = {
    "path": _path,
    "cycle": _cycle,
    "complete": _complete,
    "multipartite": _multipartite,
    "grid": _grid,
    "prism": _prism,
    "petersen": _petersen,
    "caterpillar": _caterpillar,
    "product": _product,
}
