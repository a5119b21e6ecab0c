import gc
import weakref

import pytest

from gcschub.certify import search
from gcschub.coeffs import lr_coefficient
from gcschub import gc_polytope
from gcschub.gc_polytope import (
    Face,
    Polytope,
    UnsupportedShapeError,
    lattice_point_count,
)
from gcschub.ladder import LadderDiagram, validate_lambda
from gcschub.kogan import enumerate_reduced
from gcschub.weyl import ParabolicShape, Permutation, grassmannian_perm
from paper_checks import coordinate_point, value_of
from reference_faces import (
    antichain,
    contains,
    face_dimension_by_rank,
    facet_face,
    intersect,
    meet,
    whole_face,
)


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


GR24 = make(2, 4)
GR25 = make(2, 5)
FL3 = make(1, 2, 3)
FL4 = make(1, 2, 3, 4)


class TestPolytopeBasics:
    def test_dimensions(self):
        assert GR24.dim == 4
        assert make(1, 2, 3, 4).dim == 6
        assert make(1, 2).dim == 1

    def test_lambda_validation(self):
        validate_lambda(ParabolicShape((2,), 4), (1, 1, 0, 0))
        with pytest.raises(ValueError):
            validate_lambda(ParabolicShape((2,), 4), (1, 0, 0, 0))
        with pytest.raises(ValueError):
            validate_lambda(ParabolicShape((2,), 4), (1, 1, 1, 1))

    def test_facet_count_is_effective_edge_count(self):
        for poly in (GR24, GR25, FL3, FL4):
            assert poly.facet_count == len(poly.diagram.effective_edges)


class TestVertices:
    def test_grassmannian_counts(self):
        assert len(GR24.vertices()) == 6
        assert len(GR25.vertices()) == 10
        assert len(make(3, 6).vertices()) == 20

    def test_segment(self):
        assert len(make(1, 2).vertices()) == 2

    def test_fl3(self):
        verts = FL3.vertices()
        assert len(verts) == 7
        assert sum(FL3.is_regular(v) for v in verts) == 6

    def test_every_vertex_on_enough_facets(self):
        for poly in (GR24, FL3, FL4):
            for v in poly.vertices():
                assert len(v.facets()) >= poly.dim

    def test_zero_dim_faces_are_vertices(self):
        # a vertex is the face of its values, pinned from outside
        for v in GR24.vertices():
            assert v.dim == 0
            face = GR24.face_from_pins(dict(zip(GR24.boxes, v.values)))
            assert face == v and hash(face) == hash(v)

    def test_sorted_by_values(self):
        for poly in (GR24, GR25, FL3, FL4, make(1, 3, 4)):
            values = [v.values for v in poly.vertices()]
            assert values == sorted(values) and len(set(values)) == len(values)

    def test_vertex_bitsets(self):
        # bit i stands for the i-th vertex: the whole bitset reads back as
        # the vertex list, and a facet's bitset as the vertices on it
        for poly in (GR25, FL4, make(1, 3, 4)):
            verts = poly.vertices()
            whole, table = poly.vertex_bitsets()
            assert poly.vertices_in(whole) == verts
            assert list(table) == list(poly.diagram.effective_edges)
            for e, bits in table.items():
                assert poly.vertices_in(bits) == [v for v in verts if e in v.facets()], e

    def test_positive_dimension_is_not_a_vertex(self):
        f = GR24.named_face_F((1, 0))
        fixed = [c for c, v in zip(GR24.boxes, f.key) if v < 0]
        free = [c for c, v in zip(GR24.boxes, f.key) if v > 0]
        assert f.dim == 3 and fixed and free
        with pytest.raises(ValueError):
            f.values
        with pytest.raises(ValueError):
            value_of(f, free[0])
        assert value_of(f, fixed[0]) == 2
        for face in (whole_face(GR24), Face(GR24, -1)):
            with pytest.raises(ValueError):
                face.values


class TestRegularAndVX:
    def test_grassmannian_all_in_VX(self):
        for poly in (GR24, GR25):
            assert all(poly.in_VX(v) for v in poly.vertices())

    def test_regular_counts_complete(self):
        for n, poly in ((3, FL3), (4, FL4)):
            regular = [v for v in poly.vertices() if poly.is_regular(v)]
            import math
            assert len(regular) == math.factorial(n)

    def test_vx_equals_regular_on_complete(self):
        for poly in (FL3, FL4):
            for v in poly.vertices():
                assert poly.is_regular(v) == poly.in_VX(v)

    def test_non_vertex_rejected(self):
        # on a Grassmannian too, where every vertex lies on the flag variety
        for poly in (GR24, FL3):
            for face in (whole_face(poly), Face(poly, -1)):
                with pytest.raises(ValueError, match="not a vertex"):
                    poly.in_VX(face)

    def test_unsupported_shape(self):
        mixed = make(1, 3, 4)
        v = mixed.vertices()[0]
        with pytest.raises(UnsupportedShapeError):
            mixed.in_VX(v)
        with pytest.raises(UnsupportedShapeError):
            mixed.is_regular(v)


class TestCoordinatePoints:
    def test_gr24_bijection_with_paths(self):
        cps = sorted(coordinate_point(GR24, v)[2] for v in GR24.vertices())
        assert cps == sorted(GR24.diagram.paths_at_level(2))

    def test_all_b_vertex_is_top_path(self):
        allb = [v for v in GR24.vertices() if set(v.values) == {2}][0]
        assert coordinate_point(GR24, allb)[2] == (3, 4)

    def test_fl3_regulars_distinct_and_nested(self):
        points = set()
        for v in FL3.vertices():
            if not FL3.is_regular(v):
                continue
            cp = coordinate_point(FL3, v)
            assert set(cp[1]) <= set(cp[2])
            points.add((cp[1], cp[2]))
        assert len(points) == 6


class TestFaceArithmetic:
    def test_intersect_with_whole(self):
        f = GR24.named_face_F((1, 0))
        assert intersect(GR24, f, whole_face(GR24)) == f

    def test_contradictory_pins_empty(self):
        a = GR24.face_from_pins({(1, 1): 1})
        b = GR24.face_from_pins({(1, 1): 2})
        assert intersect(GR24, a, b).is_empty
        assert intersect(GR24, a, b).dim == -1

    def test_richardson_segment_and_chevalley_point(self):
        # the face pair differs by one box: a one-dimensional face, which a
        # single divisor facet on the path of (1,0) cuts down to a vertex
        f = intersect(GR24, GR24.named_face_F((1, 0)), GR24.named_face_Fvee((1, 1)))
        assert f.dim == 1
        from gcschub.ladder import path_of_partition

        fin = [
            intersect(GR24, f, facet_face(GR24, e))
            for e in GR24.diagram.effective_edges_on(path_of_partition((1, 0), 2, 4))
        ]
        nonempty = [g for g in fin if not g.is_empty]
        assert nonempty and all(g.dim == 0 for g in nonempty)

    def test_dimension_oracle_exhaustive(self):
        # every face arising as an intersection of facets, on three shapes
        for poly in (GR24, GR25, FL4):
            edges = poly.diagram.effective_edges
            seen = {whole_face(poly)}
            frontier = [whole_face(poly)]
            while frontier:
                nxt = []
                for f in frontier:
                    for e in edges:
                        g = intersect(poly, f, facet_face(poly, e))
                        if not g.is_empty and g not in seen:
                            seen.add(g)
                            nxt.append(g)
                frontier = nxt
            for f in seen:
                assert f.dim == face_dimension_by_rank(poly, f), f
            # the face lattice of the polytope is finite and closed
            assert len(seen) > poly.facet_count

    def test_face_edge_ids_regenerate_face(self):
        f = GR24.named_face_F((1, 0))
        ids = f.edge_ids()
        regen = whole_face(GR24)
        for eid in ids:
            kind = eid[0]
            a, b = eid[2:-1].split(",")
            regen = intersect(GR24, regen, facet_face(GR24, (kind, int(a), int(b))))
        assert regen == f


class TestNamedFaces:
    def test_F_dimensions(self):
        # dim F_mu = sum(n - m - mu_i)
        for mu in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
            assert GR24.named_face_F(mu).dim == sum(2 - x for x in mu)
            assert GR24.named_face_Fvee(mu).dim == sum(mu)

    def test_F_zero_is_whole(self):
        assert GR24.named_face_F((0, 0)) == whole_face(GR24)

    def test_Fvee_zero_is_vertex(self):
        f = GR24.named_face_Fvee((0, 0))
        assert f.dim == 0
        assert set(f.values) == {1}
        listed = [v for v in GR24.vertices() if v.values == f.values]
        assert listed == [f] and hash(listed[0]) == hash(f)

    def test_nonempty_iff_leq(self):
        parts = [(a, b) for a in range(4) for b in range(a + 1)]
        for mu in parts:
            for eta in parts:
                f = intersect(GR25, GR25.named_face_F(mu), GR25.named_face_Fvee(eta))
                if all(x <= y for x, y in zip(mu, eta)):
                    assert f.dim == sum(eta) - sum(mu)
                else:
                    assert f.is_empty

    def test_delta_k_codim_two(self):
        for k in (1, 2, 3):
            assert GR25.delta_k_face(k).dim == GR25.dim - 2

    def test_delta_k_shape_guard(self):
        with pytest.raises(UnsupportedShapeError):
            make(3, 6).delta_k_face(1)


class TestUnionsOfFaces:
    def test_antichain_reduction(self):
        big = GR24.named_face_F((1, 0))
        small = intersect(GR24, big, GR24.named_face_Fvee((2, 1)))
        assert antichain([small, big, big]) == (big,)

    def test_union_intersection_matches_pointwise(self):
        f1 = facet_face(GR24, ("H", 1, 1))
        f2 = facet_face(GR24, ("V", 1, 2))
        g = facet_face(GR24, ("H", 1, 2))
        for face in meet(GR24, [[f1, f2], [g]]):
            assert contains(face, face)
            assert contains(g, face)

    def test_antichain_sorts_by_mask_not_by_values(self):
        # a union keeps its faces in mask order, which is not the order of
        # the values, so a vertex list is sorted by values where it is made
        for poly in (GR25, FL4):
            union = antichain(poly.vertices())
            assert union == tuple(sorted(poly.vertices()))
            assert union != tuple(poly.vertices())
            assert sorted(union, key=lambda f: f.values) == poly.vertices()


class TestLatticePoints:
    def test_count_gr24(self):
        assert len(GR24.lattice_points((2, 2, 0, 0))) == 20
        assert len(GR24.lattice_points((1, 1, 0, 0))) == 6

    def test_count_fl3(self):
        assert len(FL3.lattice_points((2, 1, 0))) == 8

    def test_weyl_dimension_formula(self):
        cases = [
            (GR24, (2, 2, 0, 0)), (GR24, (3, 3, 1, 1)), (FL3, (2, 1, 0)), (FL3, (5, 2, 0)),
            (FL4, (3, 2, 1, 0)), (FL4, (4, 2, 1, -1)), (make(2, 4, 6), (3, 3, 2, 2, 0, 0)),
        ]
        for poly, lam in cases:
            assert lattice_point_count(lam) == len(poly.lattice_points(lam)), lam

    def test_bound_counts_before_listing(self, monkeypatch):
        fl6 = make(1, 2, 3, 4, 5, 6)
        assert lattice_point_count((6, 5, 4, 3, 2, 1)) == 32768
        with pytest.raises(UnsupportedShapeError, match="14348907 lattice points"):
            fl6.lattice_points((12, 10, 8, 6, 4, 2))
        monkeypatch.setattr(gc_polytope, "MAX_VERTICES", 20)
        assert len(GR24.lattice_points((2, 2, 0, 0))) == 20
        monkeypatch.setattr(gc_polytope, "MAX_VERTICES", 19)
        with pytest.raises(UnsupportedShapeError, match="20 lattice points"):
            GR24.lattice_points((2, 2, 0, 0))

    def test_all_valid(self):
        from gcschub.ladder import is_gc_pattern

        for pt in GR24.lattice_points((2, 2, 0, 0)):
            assert is_gc_pattern(pt)
            assert pt[3] == (2, 2, 0, 0)


def test_no_reference_cycles():
    # the polytope's caches hold masks and keys, never faces, and no
    # recursive walk keeps its frames in a cycle: with the collector off,
    # each run leaves nothing for it and a dropped polytope is freed at once
    def fl6_vertices():
        poly = make(1, 2, 3, 4, 5, 6)
        for v in poly.vertices():
            poly.is_regular(v)
            poly.in_VX(v)
        return poly

    def gr36_chevalley_search():
        poly = make(3, 6)
        vs = [grassmannian_perm(mu, 3, 6) for mu in ((1, 0, 0), (2, 1, 0))]
        assert search(poly, vs, grassmannian_perm((2, 1, 1), 3, 6)).ok
        return poly

    def gr24_lattice_points():
        poly = make(2, 4)
        assert len(poly.lattice_points((2, 2, 0, 0))) == 20
        return poly

    def lr():
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2

    def fl4_kogan():
        assert enumerate_reduced(FL4.diagram, Permutation((4, 3, 2, 1)), dual=True)

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for run in (fl6_vertices, gr36_chevalley_search, gr24_lattice_points, lr, fl4_kogan):
            poly = run()
            assert gc.collect() == 0, run.__name__
            if poly is not None:
                ref = weakref.ref(poly)
                del poly
                assert ref() is None, run.__name__
    finally:
        if enabled:
            gc.enable()
