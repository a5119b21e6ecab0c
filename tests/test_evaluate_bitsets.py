"""Differential tests of certification on vertex bitsets against the fold
of unions of faces it replaced (``reference_faces.evaluate_by_faces``):
both must agree in kind, status, count, vertex values and translations,
and every piece's vertex bitset must be the vertex set of the reference's
maximal faces."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcschub import gc_polytope
from gcschub.certify import Certificate, _candidates, _pair_on_one_face, evaluate
from gcschub.coeffs import build_modified_partition
from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import (
    ParabolicShape,
    Permutation,
    UnsupportedShapeError,
    grassmannian_perm,
    length,
    longest_element,
    min_coset_rep,
)
from reference_faces import (
    delta_uv_by_faces,
    delta_uv_paths,
    divisor_bits,
    evaluate_by_faces,
    pair_on_one_face_by_facets,
    piece_table,
    vertex_bits,
)


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


def outcome(res) -> tuple:
    """What a caller reads off an evaluation: the failure kind, or the
    status, count, vertex values and translations of the certificate."""
    if isinstance(res, Certificate):
        return ("certificate", res.status, res.count, [v.values for v in res.vertices], res.us)
    return (res.kind,)


def check_same(poly, vs, w, us) -> str:
    got = outcome(evaluate(poly, list(vs), w, list(us)))
    expected = outcome(evaluate_by_faces(poly, list(vs), w, list(us)))
    assert got == expected, (vs, w, us)
    return got[0] if got[0] != "certificate" else got[1]


def perms(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_fl4_tier1_tuples():
    # every tier-1 tuple of every triple the Fl4 sweep searches: the
    # members of the nonzero class and its split tuples
    poly = make(1, 2, 3, 4)
    searched = [
        member
        for cls in build_modified_partition(4) if cls.kind != "zero"
        for member in cls.members + tuple(cls.extended)
    ]
    kinds = set()
    for *vs, w in searched:
        for _, us in _candidates(poly, vs, (1,)):
            kinds.add(check_same(poly, vs, w, us))
    assert {"certified", "positive_dimension"} <= kinds


def test_fl4_vertices_off_the_flag_variety():
    # every translation pair of one Fl4 triple, among which some leave
    # finitely many vertices with one off the flag variety
    poly = make(1, 2, 3, 4)
    vs = [Permutation((1, 3, 4, 2)), Permutation((3, 1, 2, 4))]
    w = Permutation((3, 4, 1, 2))
    kinds = {check_same(poly, vs, w, us) for us in itertools.product(perms(4), repeat=2)}
    assert "vertex_outside_flag" in kinds


@pytest.mark.parametrize("m", [2, 3])
def test_gr6_two_factor_triples(m):
    # every degree-compatible two-factor triple of Gr(m, 6), untranslated
    # and at each of its tier-2 candidates
    n = 6
    poly = make(m, n)
    parts = [p for p in itertools.product(range(n - m + 1), repeat=m)
             if all(a >= b for a, b in zip(p, p[1:]))]
    idt = Permutation.identity(n)
    kinds = set()
    for mu, nu, eta in itertools.product(parts, repeat=3):
        if sum(eta) != sum(mu) + sum(nu):
            continue
        vs = [grassmannian_perm(mu, m, n), grassmannian_perm(nu, m, n)]
        w = grassmannian_perm(eta, m, n)
        for us in [(idt, idt), *(t for _, t in _candidates(poly, vs, (2,)))]:
            kinds.add(check_same(poly, vs, w, us))
    assert {"certified", "positive_dimension"} <= kinds


@pytest.mark.parametrize("cuts_n", [(1, 2, 3, 4), (2, 5)])
def test_every_piece_holds_the_vertices_of_the_reference_faces(cuts_n):
    poly = make(*cuts_n)
    reps = [v for v in perms(poly.n) if poly.shape.in_min_coset_reps(v)]
    for u, v in itertools.product(perms(poly.n), reps):
        faces = delta_uv_by_faces(poly, u, v)
        assert poly.piece(u, v)[0] == vertex_bits(poly, faces), (u, v)


@pytest.mark.parametrize("cuts_n", [(2, 5), (3, 6), (1, 2, 3, 4), (1, 3, 5)], ids=str)
def test_pair_scan_matches_facet_reference(cuts_n):
    # every degree-compatible two-factor triple, untranslated and at each
    # of its tier-2 candidates: the scan on tight masks and the scan on
    # facet vertex bitsets name the same pair of vertices of S, or none
    poly = make(*cuts_n)
    n = poly.n
    idt = Permutation.identity(n)
    w0 = longest_element(n)
    reps = [v for v in perms(n) if poly.shape.in_min_coset_reps(v)]
    outcomes = set()
    for a, b, w in itertools.product(reps, repeat=3):
        if length(a) + length(b) != length(w):
            continue
        for us in [(idt, idt), *(t for _, t in _candidates(poly, [a, b], (2,)))]:
            pieces = [(w0, min_coset_rep(w0 * w, poly.shape)), *zip(us, (a, b))]
            paths = set().union(*(delta_uv_paths(poly, u, v) for u, v in pieces))
            tight = poly.vertex_masks_in(divisor_bits(poly, paths))
            got = _pair_on_one_face(tight, {poly.divisor(p)[1] for p in paths})
            assert got == pair_on_one_face_by_facets(poly, paths), (a, b, w, us)
            outcomes.add((got is None, bool(tight)))
    # both outcomes on a non-empty S
    assert {(True, True), (False, True)} <= outcomes


def tuples(poly):
    """Two factors and a target of matching length, all minimal coset
    representatives, with two translations, half of them the identity."""
    reps = [v for v in perms(poly.n) if poly.shape.in_min_coset_reps(v)]
    by_length: dict[int, list[Permutation]] = {}
    for v in reps:
        by_length.setdefault(length(v), []).append(v)
    pairs = [(a, b) for a, b in itertools.product(reps, repeat=2)
             if length(a) + length(b) in by_length]
    perm = st.permutations(range(1, poly.n + 1)).map(lambda p: Permutation(tuple(p)))
    translation = st.one_of(st.just(Permutation.identity(poly.n)), perm)

    @st.composite
    def case(draw):
        vs = draw(st.sampled_from(pairs))
        w = draw(st.sampled_from(by_length[length(vs[0]) + length(vs[1])]))
        return list(vs), w, [draw(translation), draw(translation)]

    return case()


@pytest.mark.parametrize("cuts_n", [(1, 2, 3, 4, 5), (2, 4, 6)])
def test_sampled_tuples(cuts_n):
    poly = make(*cuts_n)

    @settings(max_examples=150, deadline=None)
    @given(tuples(poly))
    def check(case):
        vs, w, us = case
        check_same(poly, vs, w, us)
        for u, v in zip(us, vs):
            faces = delta_uv_by_faces(poly, u, v)
            assert poly.piece(u, v)[0] == vertex_bits(poly, faces), (u, v)

    check()


def test_shape_above_the_vertex_bound_is_refused_before_any_piece(monkeypatch):
    # Fl8 has 3,000,736 vertices: evaluate raises from the count, and no
    # piece enters the cache
    poly = make(1, 2, 3, 4, 5, 6, 7, 8)
    s = Permutation.transposition
    with pytest.raises(UnsupportedShapeError, match="3000736 vertices"):
        evaluate(poly, [s(1, 8)], s(1, 8), [Permutation.identity(8)])
    assert piece_table(poly) == {}
    # the bound is the one of the vertex listing
    monkeypatch.setattr(gc_polytope, "MAX_VERTICES", 9)
    with pytest.raises(UnsupportedShapeError, match="10 vertices"):
        evaluate(make(2, 5), [grassmannian_perm((1, 0), 2, 5)],
                 grassmannian_perm((1, 0), 2, 5), [Permutation.identity(5)])
