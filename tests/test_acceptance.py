"""Acceptance gate: the project's frozen end-to-end claims, one test each.

Every test prints ``ACCEPTANCE <n> (<slug>): PASS`` or ``FAIL`` (visible
under ``pytest -s``); the per-test pass/fail status under ``pytest -v``
carries the same information.  Criteria with a stated time budget assert
it, so a performance regression fails the gate rather than only slowing it.
"""

import functools
import itertools
import random
import time

import pytest

import idindex.cli as cli
from idindex.constructions import (
    construct_assignment,
    expected_id_index,
    universal_assignment,
)
from idindex.families import FamilySpec, generate, random_connected_graph
from idindex.graphs import all_pairs_distances
from idindex.solvers import Partition, id_index_exact, id_number_exact
from idindex.strings_codes import code_table, is_distinguishing, string_table
from idindex.structure import distance_profile, tuplet_classes

from corpus import (
    CORPUS_SEED,
    affine_transform,
    connected_corpus_up_to,
    geometric_pool,
    id_index_oracle,
    random_corpus,
    reference_partition_distinguishes,
    restricted_growth_strings,
)


def criterion(num, slug):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({slug}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({slug}): PASS")
            return result

        return run

    return wrap


def graph_of(spec):
    g, _ = generate(spec)
    return g


@pytest.fixture(scope="module")
def corpus():
    """All labeled connected graphs n <= 5 plus 200 seeded random graphs
    on 6..8 vertices; shared by the equivalence and cross-check criteria."""
    graphs = list(connected_corpus_up_to(5))
    assert len(graphs) == 772
    graphs += random_corpus(200, sizes=(6, 7, 8), seed=CORPUS_SEED)
    return graphs


@pytest.fixture(scope="module")
def corpus_certificates(corpus):
    return [id_index_exact(g) for g in corpus]


@criterion(1, "family-table")
def test_criterion_1_family_table():
    started = time.perf_counter()
    cases = []
    cases += [(FamilySpec("path", (n,)), 2) for n in range(2, 13)]
    cases += [(FamilySpec("cycle", (n,)), 3 if n <= 5 else 2) for n in range(3, 13)]
    cases += [
        (FamilySpec("grid", (m, n)), 3 if (m, n) == (2, 2) else 2)
        for m in (2, 3, 4)
        for n in (2, 3, 4)
    ]
    cases += [(FamilySpec("prism", (n,)), 3 if n <= 5 else 2) for n in range(3, 9)]
    cases += [(FamilySpec("complete", (n,)), n) for n in range(2, 9)]
    cases += [
        (FamilySpec("multipartite", sizes), sizes[-1])
        for sizes in [(1, 2), (1, 2, 3), (1, 3, 4), (2, 3, 5)]
    ]
    cases += [
        (FamilySpec("multipartite", (m, n)), n + 1 if m == n else n)
        for m in range(1, 5)
        for n in range(m, 5)
    ]
    cases += [
        (FamilySpec("caterpillar", counts), value)
        for counts, value in [
            ((1, 0, 1), 2),
            ((2, 2), 2),
            ((2, 4, 2, 2, 4, 2), 4),
            ((3, 1, 1, 3), 3),
        ]
    ]
    for spec, value in cases:
        assert expected_id_index(spec) == value, spec.label()
        assert id_index_exact(graph_of(spec)).k == value, spec.label()
    assert time.perf_counter() - started < 120


@criterion(2, "petersen")
def test_criterion_2_petersen():
    started = time.perf_counter()
    g = graph_of(FamilySpec("petersen"))
    cert = id_index_exact(g)
    assert cert.k == 3
    assert cert.infeasibility is not None
    assert cert.infeasibility.level == 2
    assert cert.infeasibility.certified_by == "counting-bound"
    # the bound's verdict, checked by trying every 2-class partition
    dm = all_pairs_distances(g)
    assert not any(
        reference_partition_distinguishes(dm, Partition(rgs, 2))[0]
        for rgs in restricted_growth_strings(10, 2)
    )
    assert time.perf_counter() - started < 10


@criterion(3, "quoted-strings")
def test_criterion_3_quoted_string_vectors():
    spec = FamilySpec("caterpillar", (2, 4, 2, 2, 4, 2))
    g = graph_of(spec)
    table = string_table(all_pairs_distances(g), construct_assignment(spec))
    assert table[2] == (5, 16, 14, 3, 0, 0, 0)  # third spine vertex
    assert table[3] == (5, 15, 15, 3, 0, 0, 0)  # fourth spine vertex


@criterion(4, "k112-triple")
def test_criterion_4_k112_triple_check():
    k112 = graph_of(FamilySpec("multipartite", (1, 1, 2)))
    assert id_index_exact(k112).k == 2
    assert id_number_exact(k112) is None
    triangle_k = id_index_exact(graph_of(FamilySpec("complete", (3,)))).k
    assert triangle_k == 3
    # the triangle sits inside K_{1,1,2}, yet needs more values
    assert triangle_k > id_index_exact(k112).k


@criterion(5, "oracle-equivalence")
def test_criterion_5_oracle_equivalence(corpus, corpus_certificates):
    started = time.perf_counter()
    assert len(corpus) == 972
    mismatches = 0
    for g, cert in zip(corpus, corpus_certificates):
        if id_index_oracle(g, geometric_pool(g.n)) != cert.k:
            mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - started < 600


@criterion(6, "cross-checks")
def test_criterion_6_invariant_cross_checks(corpus, corpus_certificates):
    violations = 0
    for g, cert in zip(corpus, corpus_certificates):
        dm = all_pairs_distances(g)
        if id_number_exact(g) is not None and cert.k > 2:
            violations += 1
        all_red = frozenset(range(g.n))
        if (cert.k == 1) != is_distinguishing(code_table(dm, all_red)):
            violations += 1
        if cert.k < tuplet_classes(g).max_size:
            violations += 1
    assert violations == 0


@criterion(7, "affine-suite")
def test_criterion_7_affine_transform_suite():
    pool = [FamilySpec("petersen")]
    pool += [FamilySpec("prism", (n,)) for n in range(3, 9)]
    pool += [FamilySpec("cycle", (n,)) for n in range(3, 13)]
    pool += [FamilySpec("complete", (n,)) for n in range(2, 9)]
    prepared = []
    for spec in pool:
        g = graph_of(spec)
        dm = all_pairs_distances(g)
        spheres = string_table(dm, (1,) * g.n)
        assert distance_profile(spheres) is not None, spec.label()
        prepared.append((g, dm))

    rng = random.Random(CORPUS_SEED + 7)
    checked = 0
    while checked < 50:
        g, dm = prepared[rng.randrange(len(prepared))]
        f = tuple(rng.randint(-30, 30) for _ in range(g.n))
        if not is_distinguishing(string_table(dm, f)):
            f = universal_assignment(g.n)  # always distinguishing fallback
        scale = rng.choice([s for s in range(-9, 10) if s != 0])
        offset = rng.randint(-50, 50)
        moved = affine_transform(f, scale, offset)
        assert is_distinguishing(string_table(dm, moved))
        checked += 1
    assert checked == 50


def _symmetric_leaf_counts(n_spine, max_leaves):
    half = (n_spine + 1) // 2
    for combo in itertools.product(range(max_leaves + 1), repeat=half):
        if combo[0] < 1:
            continue
        yield combo + tuple(reversed(combo[: n_spine - half]))


@criterion(8, "construction-sweep")
def test_criterion_8_construction_sweep():
    def verify(spec, value):
        f = construct_assignment(spec)
        g = graph_of(spec)
        assert is_distinguishing(string_table(all_pairs_distances(g), f)), spec.label()
        assert len(set(f)) == value == expected_id_index(spec), spec.label()

    checked = 0
    # every strictly increasing size tuple with parts from 1..8
    for r in range(2, 9):
        for sizes in itertools.combinations(range(1, 9), r):
            verify(FamilySpec("multipartite", sizes), sizes[-1])
            checked += 1
    assert checked == 247

    for n in range(1, 11):
        verify(FamilySpec("multipartite", (n, n)), n + 1)
        checked += 1

    for n_spine in range(1, 9):
        for counts in _symmetric_leaf_counts(n_spine, 5):
            verify(FamilySpec("caterpillar", counts), max(max(counts), 2))
            checked += 1
    assert checked == 247 + 10 + 2590

    rng = random.Random(CORPUS_SEED + 8)
    for n in list(range(1, 13)) * 2:
        g = random_connected_graph(n, rng)
        f = universal_assignment(g.n)
        assert len(set(f)) == g.n
        assert is_distinguishing(string_table(all_pairs_distances(g), f))
        checked += 1
    assert checked == 2871


@criterion(9, "determinism")
def test_criterion_9_sweep_determinism(tmp_path, capsys):
    def run_twice(argv_maker):
        outputs = []
        for i in range(2):
            target = tmp_path / f"out-{len(outputs)}-{i}.csv"
            code = cli.run(argv_maker(str(target)))
            assert code == 0
            outputs.append(target.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    run_twice(
        lambda path: ["sweep", "--family", "prism", "--from", "3", "--to", "8",
                      "--csv", path]
    )
    run_twice(
        lambda path: ["sweep", "--family", "grid", "--from", "1", "--to", "3",
                      "--csv", path]
    )
    run_twice(
        lambda path: ["sweep", "--random", "n=7,count=5,seed=11", "--csv", path]
    )
    run_twice(
        lambda path: ["compute", "--family", "petersen", "--json", path]
    )
