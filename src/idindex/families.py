"""Named graph families with stable vertex numbering.

Every generator fixes a canonical layout so that solver output, closed-form
rank constructions and tests all agree on which vertex is which:

* paths/cycles: vertices in walk order;
* complete multipartite: parts occupy consecutive id blocks, in given order;
* caterpillars: spine first (in path order), then leaves grouped by spine
  vertex, ascending;
* Cartesian products: pair ``(g, h)`` gets id ``h * |G| + g``; one product
  builder serves ``product``, grids (``path(m) x path(n)``) and prisms
  (``cycle(n) x path(2)``), which keep their own role tags;
* ``Graph.automorphisms``: reflection (paths), rotation and reflection
  (cycles), rotation and swap of 0 and 1 (complete), a rotation inside
  every part and a turn of each part onto the next part of its size
  (multipartite), each factor's lifted plus the swap of equal factor specs
  (products); other kinds carry none.

Each kind is one ``_Kind`` record in ``_KINDS``: its parameter separator
(None for Petersen), parameter count (exact, or at least), least parameter
value, vertex count ``vertices(params)`` and builder ``build(*params)``.
The parser splits by the separator and raises only grammar errors; the
record checks the rest, save a caterpillar's end leaves and a product's
factors.

A ``FamilySpec`` is checked when it is made: its parameters, and its
vertex count against ``MAX_VERTICES``, before any graph is built.
Alongside the graph, ``generate`` returns ``roles``, a tuple indexed by
vertex id that tags each vertex with its structural role, so downstream
code never has to re-derive the numbering conventions.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import accumulate, chain, pairwise
from math import prod

from .graphs import Graph, _is_integer, build_graph, check_vertex_count, is_connected


class InvalidSpecError(ValueError):
    """Malformed or out-of-domain family description."""


# products nest at most this deep, so that parsing, which recurses once per
# level, stays far below the interpreter's recursion limit: with no limit,
# 3,000 nested path:1 factors raise RecursionError.  A FamilySpec refuses a
# product with too many vertices on its own.
_MAX_PRODUCT_DEPTH = 64


class _Kind(
    namedtuple("_Kind", "vertices build sep count at_least least", defaults=(",", 1, False, 1))
):
    """How one family kind is written, checked, counted and built: its
    ``vertices`` and ``build`` callables, parameter separator, parameter
    count (exact, or at least) and least parameter value."""

    __slots__ = ()

    def __str__(self) -> str:
        """The rule, as in ``1 parameter >= 3``."""
        amount = f"at least {self.count}" if self.at_least else str(self.count)
        each = f" >= {self.least}" if self.count else ""
        return f"{amount} parameter{'s' * (self.count != 1)}{each}"


class FamilySpec(namedtuple("FamilySpec", "kind params")):
    """A family name plus its parameters, a named tuple.

    ``params`` holds integers, except for ``product`` where it holds the two
    factor specs.  Instances render back to the CLI grammar via ``label``.
    Making, copying or unpickling one checks its parameters and its vertex
    count, at most ``MAX_VERTICES``; no graph is built.
    """

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple = ()):
        spec = super().__new__(cls, kind, params)
        check_vertex_count(vertex_count(spec))
        return spec

    def __reduce__(self):  # at every pickle protocol, through __new__
        return type(self), tuple(self)

    def label(self) -> str:
        if not self.params:
            return self.kind
        factor = self.kind == "product"
        parts = (f"({p.label()})" if factor else str(p) for p in self.params)
        return f"{self.kind}:{_KINDS[self.kind].sep.join(parts)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the ``kind:params`` grammar used on the command line.

    Examples: ``path:7``, ``grid:3x4``, ``multipartite:1,2,3``,
    ``caterpillar:2,4,2,2,4,2``, ``petersen``,
    ``product:(cycle:5)x(path:2)``.  Only grammar errors are raised here;
    the ``FamilySpec`` made from the text checks its kind's rules.
    """
    text = text.strip()
    if not text:
        raise InvalidSpecError("empty family spec")
    kind, colon, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        return FamilySpec(kind)  # refused as an unknown kind
    sep = _KINDS[kind].sep
    if not rest and (colon or sep):
        raise InvalidSpecError(f"missing parameters in {text!r}")
    if kind == "product":
        # depth[i]: the parentheses open after rest[i]; each factor sits in its
        # own parentheses, so the deepest is the nesting
        depth = list(accumulate((ch == "(") - (ch == ")") for ch in rest))
        if max(depth) > _MAX_PRODUCT_DEPTH:
            raise InvalidSpecError(f"products nest at most {_MAX_PRODUCT_DEPTH} deep")
        return FamilySpec("product", _parse_factors(rest, depth))
    # petersen's sep None splits at whitespace; its record refuses any part
    parts = rest.split(sep)
    if not all(map(_is_integer, parts)):
        raise InvalidSpecError(f"non-integer parameter in {text!r}")
    return FamilySpec(kind, tuple(map(int, parts)))


def _parse_factors(rest: str, depth: list[int]):
    # grammar: (A)x(B) with A, B themselves family specs, possibly nested.
    # When rest opens with "(" its depth starts at 1, so the first 0 is at
    # the ")" that closes A; otherwise split is 0, which that ")" never is
    split = depth.index(0) if rest[0] == "(" and 0 in depth else 0
    if not (split and rest.startswith("x(", split + 1) and rest.endswith(")")):
        raise InvalidSpecError(f"product wants (A)x(B), got {rest!r}")
    return (parse_family_spec(rest[1:split]), parse_family_spec(rest[split + 3 : -1]))


def vertex_count(spec: FamilySpec) -> int:
    """The vertex count of ``spec``, after checking its parameters against
    the record of its kind."""
    kind, p = spec.kind, spec.params
    if kind not in _KINDS:
        raise InvalidSpecError(f"unknown family kind {kind!r}")
    record = _KINDS[kind]
    if kind == "product":
        if not (type(p) is tuple and tuple(map(type, p)) == (FamilySpec, FamilySpec)):
            raise InvalidSpecError("product needs two factor specs")
    elif not (
        type(p) is tuple
        and (len(p) >= record.count if record.at_least else len(p) == record.count)
        and all(type(x) is int and x >= record.least for x in p)
    ):
        raise InvalidSpecError(f"{kind} needs {record}")
    elif kind == "caterpillar" and not (p[0] and p[-1]):
        raise InvalidSpecError("caterpillar needs a leaf at each end of its spine")
    return record.vertices(p)


def generate(spec: FamilySpec) -> tuple[Graph, tuple[tuple, ...]]:
    """Build the graph and per-vertex role tags for ``spec``."""
    return _KINDS[spec.kind].build(*spec.params)


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


def _path(n):
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return _symmetric(g, tuple(range(n - 1, -1, -1))), tuple(("path", i) for i in range(n))


def _cycle(n):
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    r = tuple(range(n))
    return _symmetric(g, r[1:] + r[:1], r[:1] + r[:0:-1]), tuple(("cycle", i) for i in r)


def _complete(n):
    g, _ = _multipartite(*(1,) * n)
    r = tuple(range(n))
    return _symmetric(g, r[1:] + r[:1], (1, 0) + r[2:]), tuple(("complete", i) for i in r)


def _symmetric(g: Graph, *gens) -> Graph:
    """``g`` with the automorphisms ``gens``; a one-vertex graph has none."""
    return Graph(g.n, g.adj, gens if g.n > 1 else ())


def _multipartite(*sizes):
    r = tuple(range(sum(sizes)))  # no edge list: build_graph's takes 10x the memory
    parts = list(pairwise(accumulate(sizes, initial=0)))
    adj = tuple(row for a, b in parts for row in [r[:a] + r[b:]] * (b - a))
    roles = tuple(("part", p, j) for p, m in enumerate(sizes) for j in range(m))
    # spin rotates inside every part; turn sends each part onto the next part
    # of its size, the last onto the first
    blocks = [r[a:b] for a, b in parts]
    same: dict = {}
    for p, m in enumerate(sizes):
        same.setdefault(m, []).append(p)
    after = {p: q for ps in same.values() for p, q in zip(ps, ps[1:] + ps[:1])}
    spin = tuple(chain.from_iterable(b[1:] + b[:1] for b in blocks))
    turn = tuple(chain.from_iterable(blocks[after[p]] for p in range(len(sizes))))
    gens = [s for s in (spin, turn) if s != r]
    return _symmetric(Graph(len(r), adj), *gens), roles


def _product_of(sa: FamilySpec, sb: FamilySpec):
    """The Cartesian product of the graphs of ``sa`` and ``sb``, with the
    roles of both factors: pair ``(g, h)`` gets id ``h * |G| + g``."""
    ga, roles_a = generate(sa)
    gb, roles_b = generate(sb)
    na, nb = ga.n, gb.n
    adj = tuple(
        tuple(sorted([h * na + y for y in ga.adj[x]] + [t * na + x for t in gb.adj[h]]))
        for h in range(nb)
        for x in range(na)
    )
    gens = [tuple(h * na + x for h in range(nb) for x in s) for s in ga.automorphisms]
    gens += [tuple(t * na + x for t in s for x in range(na)) for s in gb.automorphisms]
    if sa == sb:
        gens.append(tuple(g * na + h for h in range(nb) for g in range(na)))
    return _symmetric(Graph(na * nb, adj), *gens), roles_a, roles_b


def _product(sa, sb):
    g, roles_a, roles_b = _product_of(sa, sb)
    return g, tuple(("product", a, b) for b in roles_b for a in roles_a)


def _grid(m, n):
    g, _, _ = _product_of(FamilySpec("path", (m,)), FamilySpec("path", (n,)))
    return g, tuple(("grid", v % m, v // m) for v in range(m * n))


def _prism(n):
    g, _, _ = _product_of(FamilySpec("cycle", (n,)), FamilySpec("path", (2,)))
    return g, tuple(("prism", v % n, v // n) for v in range(2 * n))


def _petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer 5-cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    roles = tuple(("outer", i) for i in range(5)) + tuple(
        ("inner", i) for i in range(5)
    )
    return build_graph(10, edges), roles


def _caterpillar(*counts):
    spine = len(counts)
    leaves = [("leaf", i, j) for i, li in enumerate(counts) for j in range(li)]
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + v) for v, (_, i, _) in enumerate(leaves)]
    roles = tuple(("spine", i) for i in range(spine)) + tuple(leaves)
    return build_graph(spine + len(leaves), edges), roles


# one-parameter kinds count their vertices with sum, as multipartite does
_KINDS = {
    "path": _Kind(sum, _path),
    "cycle": _Kind(sum, _cycle, least=3),
    "complete": _Kind(sum, _complete),
    "multipartite": _Kind(sum, _multipartite, count=2, at_least=True),
    "grid": _Kind(prod, _grid, sep="x", count=2),
    "prism": _Kind(lambda p: 2 * p[0], _prism, least=3),
    "petersen": _Kind(lambda p: 10, _petersen, sep=None, count=0),
    "caterpillar": _Kind(lambda p: len(p) + sum(p), _caterpillar, at_least=True, least=0),
    "product": _Kind(lambda p: prod(map(vertex_count, p)), _product, sep="x", count=2),
}
