import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcschub.gc_polytope import Polytope
from gcschub.kogan import (
    enumerate_reduced,
    face_from_positions,
    read_word,
    reference_word,
    word_positions,
)
from gcschub.ladder import LadderDiagram
from gcschub.pluecker import delta_uv
from gcschub.weyl import ParabolicShape, Permutation, length, longest_element, min_coset_rep
from reference_faces import (
    contains,
    degeneration_union,
    delta_uv_by_faces,
    kogan_face_to_face,
    reduced_faces_by_subsets,
    vertex_bits,
    whole_face,
)


def flag(n):
    d = LadderDiagram(ParabolicShape.complete(n))
    return d, Polytope(d)


def delta_bottom(poly, w):
    """The shadow of X_w, the translated Schubert variety w_0 X^{pi(w_0 w)}."""
    w0 = longest_element(w.n)
    return delta_uv_by_faces(poly, w0, min_coset_rep(w0 * w, poly.shape))


D6, P6 = flag(6)
D3, P3 = flag(3)
D4, P4 = flag(4)

V_REF = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
W_REF = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)


class TestReferenceWords:
    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reference_is_reduced_word_of_w0(self, n, dual):
        word = reference_word(n, dual)
        assert len(word) == n * (n - 1) // 2
        assert Permutation.from_word(word, n) == longest_element(n)

    def test_position_grid_bijective(self):
        for dual in (True, False):
            grid = word_positions(6, dual)
            assert len(grid) == 15 == len(set(grid))
            for e in grid:
                assert D6.is_effective(e)


class TestReadWord:
    def test_empty(self):
        face = read_word(D6, [], dual=True)
        assert face.perm.is_identity() and face.reduced and face.word == ()

    def test_dual_reference_vector(self):
        face = face_from_positions(D6, [2, 3, 4, 5, 8, 9, 12], dual=True)
        assert face.word == (2, 3, 4, 5, 3, 4, 3)
        assert face.perm == V_REF
        assert face.reduced

    def test_kogan_reference_vector(self):
        face = face_from_positions(D6, [2, 3, 4, 5, 8, 9], dual=False)
        assert face.word == (4, 3, 2, 1, 3, 2)
        assert face.perm == longest_element(6) * W_REF
        assert face.reduced

    def test_wrong_orientation_rejected(self):
        with pytest.raises(ValueError):
            read_word(D6, [("H", 1, 1)], dual=True)

    def test_codim_is_word_length(self):
        face = face_from_positions(D6, [2, 3, 4, 5, 8, 9, 12], dual=True)
        geom = kogan_face_to_face(P6, face)
        assert P6.dim - geom.dim == len(face.edges) == length(face.perm)


class TestEnumerate:
    def test_identity_target(self):
        faces = enumerate_reduced(D4, Permutation.identity(4), dual=True)
        assert len(faces) == 1 and faces[0].edges == frozenset()

    def test_unique_dual_face_fl6(self):
        faces = enumerate_reduced(D6, V_REF, dual=True)
        assert len(faces) == 1
        assert faces[0].word == (2, 3, 4, 5, 3, 4, 3)

    def test_unique_kogan_face_fl6(self):
        faces = enumerate_reduced(D6, longest_element(6) * W_REF, dual=False)
        assert len(faces) == 1
        assert faces[0].word == (4, 3, 2, 1, 3, 2)

    def test_total_reduced_face_count_by_brute_force(self):
        # every reduced face arises once per subset that reads reduced
        for dual in (True, False):
            kind = "V" if dual else "H"
            pool = [e for e in D4.effective_edges if e[0] == kind]
            by_perm = {}
            for r in range(len(pool) + 1):
                for combo in itertools.combinations(pool, r):
                    face = read_word(D4, combo, dual)
                    if face.reduced:
                        by_perm.setdefault(face.perm, 0)
                        by_perm[face.perm] += 1
            for w in [Permutation(p) for p in itertools.permutations(range(1, 5))]:
                found = enumerate_reduced(D4, w, dual)
                assert len(found) == by_perm.get(w, 0)


class TestWalkMatchesSubsets:
    """The walk over reduced prefixes returns the faces the subset
    reference finds, in the same order."""

    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_target(self, n, dual):
        d, _ = flag(n)
        for p in itertools.permutations(range(1, n + 1)):
            t = Permutation(p)
            assert enumerate_reduced(d, t, dual) == reduced_faces_by_subsets(d, t, dual), t

    @settings(max_examples=12, deadline=None)
    @given(st.permutations(range(1, 7)), st.booleans())
    def test_fl6_sample(self, window, dual):
        t = Permutation(tuple(window))
        assert enumerate_reduced(D6, t, dual) == reduced_faces_by_subsets(D6, t, dual)

    def test_dual_order_is_not_the_position_order(self):
        # the dual positions run along rows, the effective edges along
        # columns, so the walk's order must be re-sorted
        t = Permutation.from_word([1, 2, 1], 4)
        found = enumerate_reduced(D4, t, dual=True)
        assert len(found) > 1
        assert found == reduced_faces_by_subsets(D4, t, dual=True)


class TestDegenerationUnions:
    def test_whole_for_w0(self):
        fu = degeneration_union(P3, longest_element(3), opposite=False)
        assert fu == (whole_face(P3),)

    def test_s1_divisor_matches_delta(self):
        v = Permutation((2, 1, 3))
        fu = degeneration_union(P3, v, opposite=True)
        assert fu == delta_uv_by_faces(P3, Permutation.identity(3), v)

    def test_dual_unions_match_delta_fl3(self):
        d, poly = flag(3)
        for p in itertools.permutations(range(1, 4)):
            v = Permutation(p)
            assert degeneration_union(poly, v, opposite=True) == delta_uv_by_faces(
                poly, Permutation.identity(3), v
            ), v
            assert degeneration_union(poly, v, opposite=False) == (
                delta_bottom(poly, v)
            ), v

    def test_fl4_unions_measured_against_delta(self):
        # The flat limit always sits inside the divisor-intersection shadow.
        # Equality holds for 22 of the 24 targets on each side; the recorded
        # exceptions are where the shadow strictly contains the limit.
        d, poly = flag(4)
        dual_diff, kogan_diff = [], []
        for p in itertools.permutations(range(1, 5)):
            t = Permutation(p)
            mine = degeneration_union(poly, t, opposite=True)
            other = delta_uv_by_faces(poly, Permutation.identity(4), t)
            assert all(any(contains(g, f) for g in other) for f in mine), t
            if mine != other:
                dual_diff.append(t.window)
            mine2 = degeneration_union(poly, t, opposite=False)
            other2 = delta_bottom(poly, t)
            assert all(any(contains(g, f) for g in other2) for f in mine2), t
            if mine2 != other2:
                kogan_diff.append(t.window)
        assert dual_diff == [(3, 1, 2, 4), (3, 2, 1, 4)]
        assert kogan_diff == [(4, 1, 2, 3), (4, 2, 1, 3)]

    def test_reference_faces_equal_deltas_fl6(self):
        fu = degeneration_union(P6, V_REF, opposite=True)
        assert fu == delta_uv_by_faces(P6, Permutation.identity(6), V_REF)
        fu2 = degeneration_union(P6, W_REF, opposite=False)
        assert fu2 == delta_bottom(P6, W_REF)
        # the package's shadows hold exactly the vertices of the two unions
        w0 = longest_element(6)
        assert delta_uv(P6, Permutation.identity(6), V_REF).vertices == vertex_bits(P6, fu)
        bottom = delta_uv(P6, w0, min_coset_rep(w0 * W_REF, P6.shape))
        assert bottom.vertices == vertex_bits(P6, fu2)
