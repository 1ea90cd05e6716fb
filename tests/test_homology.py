import itertools
import random

import pytest

import oracles
from cmgraph.complexes import SimplicialComplex, independence_complex, link
from cmgraph.homology import (
    BoundaryMatrix,
    FieldSpec,
    _sparse_basis,
    _strong_core,
    boundary_matrices,
    rank_over,
    reduced_betti,
)
from test_cohen_macaulay import mod3_moore_family
from test_complexes import RP2_FACETS, boundary_sphere

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def rp2():
    return SimplicialComplex(6, RP2_FACETS)


# ---------------------------------------------------------------------------
# field specifications


def test_field_spec_accepts_zero_and_primes():
    for char in (0, 2, 3, 5, 7919, 2**31 - 1):
        assert FieldSpec(char).characteristic == char


@pytest.mark.parametrize("char", [-1, 1, 4, 6, 9, 2**31, 2147483659, False, 2.0, 3.0])
def test_field_spec_rejects_nonprimes_and_oversize(char):
    with pytest.raises(ValueError):
        FieldSpec(char)


# ---------------------------------------------------------------------------
# boundary matrices


def test_boundary_matrices_single_edge():
    cx = SimplicialComplex(2, [(1, 2)])
    d0, d1 = boundary_matrices(cx)
    assert d0.rows == ((),) and d0.cols == ((1,), (2,))
    assert d0.entries == ((1, 1),)
    assert d1.rows == ((1,), (2,)) and d1.cols == ((1, 2),)
    assert d1.entries == ((-1,), (1,))


def test_boundary_matrices_triangle_signs():
    cx = SimplicialComplex(3, [(1, 2, 3)])
    d2 = boundary_matrices(cx)[2]
    assert d2.cols == ((1, 2, 3),)
    entries = {row: d2.entries[i][0] for i, row in enumerate(d2.rows)}
    assert entries == {(2, 3): 1, (1, 3): -1, (1, 2): 1}


def test_boundary_matrices_match_dense_oracle():
    for g in oracles.random_graphs(5, 7, seed=3):
        cx = independence_complex(g)
        dense = oracles.boundary_int_matrices(cx.facets)
        mats = boundary_matrices(cx)
        assert len(mats) == len(dense)
        for bm, ref in zip(mats, dense):
            assert [list(row) for row in bm.entries] == ref


def compose_is_zero(mats: list[BoundaryMatrix]) -> bool:
    for low, high in zip(mats, mats[1:]):
        a, b = low.entries, high.entries
        for i in range(len(a)):
            for k in range(len(b[0]) if b else 0):
                if sum(a[i][j] * b[j][k] for j in range(len(b))):
                    return False
    return True


def test_boundary_composition_vanishes(fig1):
    complexes = [
        independence_complex(fig1),
        rp2(),
        boundary_sphere(4),
        SimplicialComplex(3, [(1, 2, 3)]),
    ]
    complexes += [independence_complex(g) for g in oracles.random_graphs(10, 7, seed=21)]
    for cx in complexes:
        assert compose_is_zero(boundary_matrices(cx))


# ---------------------------------------------------------------------------
# ranks


def random_matrix(rng, rows, cols):
    return [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]


def test_rank_over_matches_dense_oracles():
    rng = random.Random(99)
    for _ in range(40):
        dense = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        bm = as_matrix(dense)
        assert rank_over(bm, Q) == oracles.fraction_rank(dense)
        for p in (2, 3, 5):
            assert rank_over(bm, FieldSpec(p)) == oracles.mod_rank(dense, p)


def as_matrix(dense):
    return BoundaryMatrix(
        rows=tuple((i,) for i in range(len(dense))),
        cols=tuple((j,) for j in range(len(dense[0]) if dense else 0)),
        entries=tuple(tuple(row) for row in dense),
    )


def test_f2_rank_matches_oracle_on_large_random_matrices():
    # entries in -4..4, so the even ones vanish mod 2 and the odd ones,
    # negative included, become ones
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 40), rng.randint(1, 70)
        dense = random_matrix(rng, rows, cols)
        assert rank_over(as_matrix(dense), F2) == oracles.mod_rank(dense, 2)


def test_f2_rank_matches_oracle_on_the_smith_corpus_boundaries():
    for cx in smith_corpus():
        for bm in boundary_matrices(cx):
            dense = [list(row) for row in bm.entries]
            assert rank_over(bm, F2) == oracles.mod_rank(dense, 2)


@pytest.mark.parametrize("p", [0, 3, 5, 7, 2**31 - 1])
def test_odd_p_rank_matches_oracle_on_large_random_matrices(p):
    # negative entries need the reduction mod p, and every pivot a modular
    # inverse; 2^31 - 1 is the largest prime FieldSpec accepts.  Over Q the
    # integer entries grow and each pivot rescales the column it reduces;
    # the matrices are smaller there, since the Fraction oracle is slow
    rng = random.Random(p)
    max_rows, max_cols = (30, 55) if p == 0 else (40, 70)
    for _ in range(60):
        rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
        dense = random_matrix(rng, rows, cols)
        expected = oracles.fraction_rank(dense) if p == 0 else oracles.mod_rank(dense, p)
        assert rank_over(as_matrix(dense), FieldSpec(p)) == expected


def test_odd_p_rank_matches_oracle_on_the_smith_corpus_boundaries():
    for cx in smith_corpus():
        for bm in boundary_matrices(cx):
            dense = [list(row) for row in bm.entries]
            for p in (3, 5):
                assert rank_over(bm, FieldSpec(p)) == oracles.mod_rank(dense, p)


def test_projective_plane_boundary_ranks():
    d2 = boundary_matrices(rp2())[2]
    assert rank_over(d2, Q) == 10
    assert rank_over(d2, F2) == 9


# the boundary of the triangle's three edges, with the signs of
# _boundary_ranks, and the same columns unsigned
SIGNED_TRIANGLE = ({0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1})
UNSIGNED_TRIANGLE = ({0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1})


@pytest.mark.parametrize(
    "columns, p, rank",
    [(SIGNED_TRIANGLE, p, 2) for p in (0, 2, 3)]
    + [(UNSIGNED_TRIANGLE, 0, 3), (UNSIGNED_TRIANGLE, 2, 2), (UNSIGNED_TRIANGLE, 3, 3)],
)
def test_sparse_basis_rank_of_the_triangle_columns(columns, p, rank):
    """The signed third edge is a signed sum of the other two over every
    field, the -1 entries reduced at p = 2 with no separate F_2 path; the
    unsigned columns sum to twice each row, so are dependent over F_2 alone."""
    assert len(_sparse_basis([dict(c) for c in columns], p)) == rank


@pytest.mark.parametrize("p", [2, 3])
def test_sparse_basis_scales_a_minus_one_pivot_to_one(p):
    """pow(-1, p - 2, p) is the inverse of -1 mod p, and is 1 at p = 2."""
    assert _sparse_basis([{0: 1, 1: -1}], p) == {1: {0: p - 1, 1: 1}}


# ---------------------------------------------------------------------------
# reduced Betti numbers


def test_spheres_have_top_betti_one():
    for d in range(1, 5):
        cx = boundary_sphere(d)
        expected = (0,) * (d + 1) + (1,)
        for field in (Q, F2, F3):
            assert reduced_betti(cx, field) == expected


def test_full_simplex_is_acyclic():
    cx = SimplicialComplex(4, [(1, 2, 3, 4)])
    assert reduced_betti(cx, Q) == (0, 0, 0, 0, 0)


def test_empty_complex_and_point():
    assert reduced_betti(SimplicialComplex(0, []), Q) == (1,)
    assert reduced_betti(SimplicialComplex(1, [(1,)]), F2) == (0, 0)


def test_projective_plane_betti_depends_on_characteristic():
    cx = rp2()
    assert reduced_betti(cx, Q) == (0, 0, 0, 0)
    assert reduced_betti(cx, F2) == (0, 0, 1, 1)
    assert reduced_betti(cx, F3) == (0, 0, 0, 0)


def test_mod3_moore_space_has_homology_over_f3_alone():
    # H~_1 = Z/3, so over F_3 the universal coefficients give H~_1 and H~_2;
    # the cone over it is contractible
    moore, cone = mod3_moore_family()
    for field in (Q, F2, F3, F5):
        expected = (0, 0, 1, 1) if field == F3 else (0, 0, 0, 0)
        assert reduced_betti(moore, field) == expected
        assert oracles.betti_brute(moore.facets, field.characteristic) == expected
        assert reduced_betti(cone, field) == (0, 0, 0, 0, 0)
        assert oracles.betti_brute(cone.facets, field.characteristic) == (0, 0, 0, 0, 0)


def test_disconnection_shows_in_betti_zero():
    cx = SimplicialComplex(4, [(1, 2), (3, 4)])
    assert reduced_betti(cx, Q) == (0, 1, 0)


def smith_corpus() -> list[SimplicialComplex]:
    from cmgraph.harness import enumerate_graphs_up_to

    corpus = [independence_complex(g) for g in enumerate_graphs_up_to(5).graphs]
    corpus += [independence_complex(g) for g in oracles.random_graphs(10, 7, seed=33)]
    corpus.append(rp2())
    return corpus


def scan_links() -> list[SimplicialComplex]:
    """Every link the CM scan meets in the classes with at most 6 vertices."""
    from cmgraph.harness import enumerate_graphs_up_to

    links = set()
    for g in enumerate_graphs_up_to(6).graphs:
        cx = independence_complex(g)
        links.update(link(cx, face) for face in cx.all_faces())
    return sorted(links, key=lambda c: (c.n, c.facets))


def test_reduced_betti_matches_smith_oracle():
    # over a prime the boundary columns are built straight from the faces
    for cx in smith_corpus() + scan_links():
        for field in (Q, F2, F3, F5):
            assert reduced_betti(cx, field) == oracles.betti_brute(
                cx.facets, field.characteristic
            ), (cx.facets, field)


# ---------------------------------------------------------------------------
# the strong collapse each complex goes through before it is reduced


def core_of(cx: SimplicialComplex) -> SimplicialComplex:
    return _strong_core(cx, [sum(1 << v for v in f) for f in cx.facets])


def assert_betti_match_the_oracle(cx: SimplicialComplex):
    for field in (Q, F2, F3):
        assert reduced_betti(cx, field) == oracles.betti_brute(
            cx.facets, field.characteristic
        ), (cx.facets, field)


def test_a_cone_collapses_to_a_point():
    # every facet holds the apex 7, so each other vertex is dominated by it
    cone = SimplicialComplex(7, [f + (7,) for f in RP2_FACETS])
    assert core_of(cone) == SimplicialComplex(1, [(1,)])
    assert reduced_betti(cone, F2) == (0,) * 5
    assert_betti_match_the_oracle(cone)


def test_a_path_collapses_to_a_point_once_lower_vertices_are_tried_again():
    # the path 2-1-3-4: 1 is not dominated until the leaf 2 is gone, and
    # 3 not until 1 or 4 is
    path = SimplicialComplex(4, [(1, 2), (1, 3), (3, 4)])
    assert core_of(path) == SimplicialComplex(1, [(1,)])
    assert_betti_match_the_oracle(path)


def test_spheres_the_pentagon_and_rp2_have_no_dominated_vertex():
    # RP^2 keeps its 2-torsion: (0, 0, 1, 1) over F_2 alone
    pentagon = SimplicialComplex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for cx in [boundary_sphere(d) for d in range(1, 4)] + [pentagon, rp2()]:
        assert core_of(cx) is cx
        assert_betti_match_the_oracle(cx)


def test_of_two_vertices_with_equal_incidence_exactly_one_goes():
    # 1 and 2 lie in the same two facets, so each dominates the other; once
    # 1 is gone, 2 is dominated no more, and the hollow triangle on 2, 3, 4
    # is the core
    cx = SimplicialComplex(4, [(1, 2, 3), (1, 2, 4), (3, 4)])
    assert core_of(cx) == SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
    assert reduced_betti(cx, Q) == (0, 0, 1, 0)
    assert_betti_match_the_oracle(cx)


def test_isolated_points_a_single_vertex_and_the_empty_complex_have_no_dominated_vertex():
    points = SimplicialComplex(3, [(1,), (2,), (3,)])
    point = SimplicialComplex(1, [(1,)])
    empty = SimplicialComplex(0, [])
    for cx in (points, point, empty):
        assert core_of(cx) is cx
        assert_betti_match_the_oracle(cx)
    assert reduced_betti(points, Q) == (0, 2)
    assert reduced_betti(empty, F3) == (1,)


def test_reduced_betti_matches_the_oracle_on_every_independence_complex_up_to_7():
    # on Ind(G) a vertex v is dominated when N(w) <= N(v) for some w: the
    # fold lemma; the collapse sees only the facets
    from cmgraph.harness import enumerate_graphs_up_to

    folded = 0
    for g in enumerate_graphs_up_to(7).graphs:
        cx = independence_complex(g)
        folded += core_of(cx) is not cx
        assert_betti_match_the_oracle(cx)
    assert folded > 0
