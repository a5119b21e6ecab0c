import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gcschub.ladder import (
    LadderDiagram,
    decompose_weight,
    is_gc_pattern,
    path_edges,
    path_of_partition,
    psi,
)
from gcschub.gc_polytope import Polytope
from gcschub.weyl import InputError, ParabolicShape
from paper_checks import (
    add_patterns,
    complement,
    coordinate_point,
    exponent_vector,
    partition_of_path,
    path_join,
    path_meet,
    pattern,
    phi,
)
from reference_faces import path_leq


def diagram(*cuts_n):
    return LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1]))


class TestPathsAtLevel:
    def test_counts(self):
        assert len(diagram(2, 4).paths_at_level(2)) == 6
        assert diagram(1, 2).paths_at_level(1) == [(1,), (2,)]
        d = diagram(1, 2, 3, 4)
        assert sum(len(d.paths_at_level(l)) for l in (1, 2, 3)) == 14

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            diagram(2, 4).paths_at_level(3)


class TestPathOrder:
    def test_worked_chain(self):
        p = (4, 5, 8, 9, 10, 13, 14)
        q = (1, 2, 5, 6, 7, 8, 11, 12, 14)
        r = (1, 2, 3, 4, 5, 6, 7, 8, 14)
        assert path_leq(q, p) and path_leq(r, q)

    def test_reflexive(self):
        p = (1, 3)
        assert path_leq(p, p)

    def test_componentwise(self):
        assert path_leq((1, 3), (2, 4))

    def test_mixed_levels(self):
        # a path with fewer horizontal steps is never below one with more
        assert not path_leq((1,), (1, 2))
        assert path_leq((1, 2), (1,))


class TestMeetJoin:
    def test_mixed_levels(self):
        p, q = (1, 3), (2,)
        assert path_meet(p, q) == (1, 3)
        assert path_join(p, q) == (2,)

    def test_comparable(self):
        p, q = (1, 2), (2, 4)
        assert path_leq(p, q)
        assert path_meet(p, q) == p and path_join(p, q) == q

    def test_incomparable_pair(self):
        p, q = (1, 4), (2, 3)
        assert not path_leq(p, q) and not path_leq(q, p)
        assert path_meet(p, q) == (1, 3)
        assert path_join(p, q) == (2, 4)

    def test_distributive_lattice_laws(self):
        # absorption, idempotence, distributivity on every same-level pair
        # of every shape with n <= 6 and two cuts at most
        shapes = [(2, 4), (2, 5), (3, 6), (1, 2, 3, 4), (2, 4, 6)]
        for cuts_n in shapes:
            d = diagram(*cuts_n)
            for level in d.shape.cuts:
                paths = d.paths_at_level(level)
                for p, q in itertools.combinations(paths, 2):
                    assert path_meet(p, p) == p and path_join(p, p) == p
                    assert path_join(p, path_meet(p, q)) == p
                    assert path_meet(p, path_join(p, q)) == p
                for p, q, r in itertools.islice(
                    itertools.combinations(paths, 3), 200
                ):
                    lhs = path_meet(p, path_join(q, r))
                    rhs = path_join(path_meet(p, q), path_meet(p, r))
                    assert lhs == rhs

    def test_meet_join_are_bounds(self):
        d = diagram(2, 5)
        paths = d.paths_at_level(2)
        for p, q in itertools.combinations(paths, 2):
            lo, hi = path_meet(p, q), path_join(p, q)
            assert path_leq(lo, p) and path_leq(lo, q)
            assert path_leq(p, hi) and path_leq(q, hi)
            for r in paths:
                if path_leq(r, p) and path_leq(r, q):
                    assert path_leq(r, lo)
                if path_leq(p, r) and path_leq(q, r):
                    assert path_leq(hi, r)


class TestPartitions:
    def test_bottom_is_zero(self):
        assert partition_of_path((1, 2)) == (0, 0)

    def test_13(self):
        assert partition_of_path((1, 3)) == (1, 0)

    def test_complement(self):
        assert complement((2, 0), 2, 5) == (3, 1)
        for mu in [(0, 0), (1, 0), (3, 2), (3, 3)]:
            assert complement(complement(mu, 2, 5), 2, 5) == mu

    def test_order_isomorphism(self):
        d = diagram(2, 5)
        paths = d.paths_at_level(2)
        for p, q in itertools.product(paths, paths):
            mu, nu = partition_of_path(p), partition_of_path(q)
            assert path_leq(p, q) == all(x <= y for x, y in zip(mu, nu))

    def test_round_trip(self):
        d = diagram(3, 6)
        for p in d.paths_at_level(3):
            assert path_of_partition(partition_of_path(p), 3, 6) == p


class TestDiagramGeometry:
    def test_box_counts(self):
        # sum over blocks of (n_i - n_{i-1})(n - n_i)
        shapes = [((2,), 4, 4), ((1, 2, 3), 4, 6), ((3, 5), 8, 3 * 5 + 2 * 3)]
        for cuts, n, count in shapes:
            d = LadderDiagram(ParabolicShape(cuts, n))
            assert len(d.boxes) == count
            assert Polytope(d).dim == count

    def test_effective_edges_gr24(self):
        d = diagram(2, 4)
        assert set(d.effective_edges) == {
            ("H", 1, 1), ("H", 1, 2), ("H", 2, 1),
            ("V", 1, 1), ("V", 1, 2), ("V", 2, 1),
        }

    def test_effective_count_complete(self):
        for n in (3, 4, 5):
            d = LadderDiagram(ParabolicShape.complete(n))
            assert len(d.effective_edges) == n * (n - 1)

    def test_path_edges(self):
        edges = path_edges((1, 3), 4)
        assert edges == [("H", 1, 0), ("V", 1, 1), ("H", 2, 1), ("V", 2, 2)]


class TestSpecialPaths:
    def test_gr47_figure(self):
        d = diagram(4, 7)
        got = sorted(d.special_paths())
        want = sorted([
            (1, 2, 3, 7), (1, 2, 6, 7), (1, 5, 6, 7), (4, 5, 6, 7),
            (3, 4, 5, 6), (2, 3, 4, 5), (1, 2, 3, 4),
        ])
        assert got == want

    def test_tiny(self):
        assert sorted(diagram(1, 2).special_paths()) == [(1,), (2,)]

    def test_counts(self):
        for cuts_n in [(4, 7), (3, 5, 8), (1, 2, 3, 4), (1, 2, 3)]:
            d = diagram(*cuts_n)
            b = d.shape.bounds
            expected = sum(b[i + 1] - b[i - 1] for i in range(1, d.shape.k + 1))
            paths = d.special_paths()
            assert len(paths) == expected
            assert len(set(paths)) == d.n + d.shape.cuts[-1] - d.shape.cuts[0]


class TestExponentVectors:
    def test_bottom_path_marks_bottom_row(self):
        beta = exponent_vector(tuple(range(1, 5)), 4)
        for i in range(1, 5):
            for j in range(1, i + 1):
                assert beta[i - 1][j - 1] == (1 if i == j else 0)

    def test_marks_at_steps(self):
        beta = exponent_vector((2, 5), 5)
        assert beta[1][0] == 1 and beta[4][1] == 1
        assert sum(sum(r) for r in beta) == 2

    def test_phi_psi_inverse(self):
        pat = ((1,), (2, 0), (2, 1, 0), (2, 2, 0, 0))
        assert phi(psi(pat)) == pat
        assert psi(phi(pat)) == pat


class TestDecomposeWeight:
    def test_bijection_gr24(self):
        d = diagram(2, 4)
        poly = Polytope(d)
        lam = (2, 2, 0, 0)
        points = poly.lattice_points(lam)
        assert len(points) == 20
        for pt in points:
            paths = decompose_weight(d, lam, pt)
            assert sorted(len(p) for p in paths) == [2, 2]
        weights = set()
        for p, q in itertools.combinations_with_replacement(d.paths_at_level(2), 2):
            weights.add(add_patterns(exponent_vector(p, d.n), exponent_vector(q, d.n)))
        images = {phi(w) for w in weights}
        assert images == set(points)

    def test_bijection_fl3(self):
        d = diagram(1, 2, 3)
        poly = Polytope(d)
        lam = (2, 1, 0)
        points = poly.lattice_points(lam)
        for pt in points:
            paths = decompose_weight(d, lam, pt)
            assert sorted(len(p) for p in paths) == [1, 2]
        weights = set()
        for p in d.paths_at_level(1):
            for q in d.paths_at_level(2):
                w = add_patterns(exponent_vector(p, d.n), exponent_vector(q, d.n))
                if is_gc_pattern(phi(w)):
                    weights.add(w)
        assert {phi(w) for w in weights} == set(points)

    def test_vertex_split_single_path(self):
        # a/b vertex split along a path with a - b = 1: one path + b bottoms
        d = diagram(2, 4)
        poly = Polytope(d)
        lam = (2, 2, 1, 1)
        for v in poly.vertices():
            pt = pattern(v, lam)
            paths = decompose_weight(d, lam, pt)
            levels = sorted(len(p) for p in paths)
            assert levels == [2, 4]  # b_2 = 1 path, b_4 = 1 bottom path
            level2 = [p for p in paths if len(p) == 2][0]
            assert level2 == coordinate_point(poly, v)[2]

    def test_highest_weight_point(self):
        d = diagram(2, 4)
        poly = Polytope(d)
        lam = (1, 1, 0, 0)
        allb = [v for v in poly.vertices() if set(v.values) == {2}][0]
        paths = decompose_weight(d, lam, pattern(allb, lam))
        assert paths == [(3, 4)]

    def test_bad_lambda_raises_on_every_call(self):
        d = diagram(2, 4)
        pt = ((0,), (0, 0), (1, 0, 0), (1, 0, 0, 0))
        for _ in range(2):
            with pytest.raises(InputError, match="constant on block 1"):
                decompose_weight(d, (1, 0, 0, 0), pt)
        decompose_weight(d, (1, 1, 0, 0), ((0,), (0, 0), (1, 0, 0), (1, 1, 0, 0)))

    def test_rejects_non_integral_top(self):
        d = diagram(2, 4)
        with pytest.raises(ValueError):
            decompose_weight(d, (2, 2, 0, 0), ((0,), (0, 0), (1, 0, 0), (2, 2, 0, 1)))


@settings(max_examples=60)
@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True).map(
        lambda v: tuple(sorted(v))
    ),
    st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True).map(
        lambda v: tuple(sorted(v))
    ),
)
def test_meet_join_property(p, q):
    assert path_leq(path_meet(p, q), path_join(p, q))
    assert len(path_meet(p, q)) == max(len(p), len(q))
    assert len(path_join(p, q)) == min(len(p), len(q))
