"""Differential tests of the tight-mask fast paths against the slow
references they replaced: key-walking containment, vertex-set containment,
a fresh key-based saturation of every intersection and of every merge list
by bound propagation, the anchored component test for vertices, the column
sweep for the candidate points, the value-based facet test for vertices,
and a hand-ordered fold for the reference ``meet``, each step the antichain
of the pairwise intersections."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcschub import gc_polytope
from gcschub.gc_polytope import Face, Polytope, _canonical_key
from gcschub.ladder import LadderDiagram
from gcschub.pluecker import vanishing_schubert
from gcschub.weyl import InputError, ParabolicShape, Permutation, UnsupportedShapeError
from paper_checks import value_of
from reference_faces import (
    antichain,
    contains,
    degeneration_union,
    delta_uv_by_faces,
    divisor_facets,
    facet_face,
    intersect,
    meet,
    whole_face,
)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
        return ra


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


def key_contains(f, g) -> bool:
    """Reference containment on keys: every equality of f holds on g."""
    if g.is_empty:
        return True
    if f.is_empty:
        return False
    classes: dict[int, set[int]] = {}
    for mine, theirs in zip(f.key, g.key):
        classes.setdefault(mine, set()).add(theirs)
    for mine, theirs in classes.items():
        if mine < 0:
            if theirs != {mine}:
                return False
        elif len(theirs) != 1:
            return False
    return True


def saturate_by_bounds(poly, merges):
    """Reference saturation: repeat until nothing changes, merging strongly
    connected blocks of the pair graph, propagating the value bounds of
    each block along the pairs, and merging a block whose bounds meet into
    the value node of that value.  Two value nodes in one class, or bounds
    that cross, make the system empty.  Returns the key and its tight mask,
    (None, -1) when empty."""
    nb = len(poly.boxes)
    size = nb + poly.num_values
    uf = _UnionFind(size)
    for a, b in merges:
        uf.union(a, b)
    while True:
        root_of = [uf.find(i) for i in range(size)]
        # class root -> l for the class holding the value node of a_l
        pin = {root_of[nb + l - 1]: l for l in range(1, poly.num_values + 1)}
        if len(pin) != poly.num_values:
            return None, -1
        edges = {(root_of[lo], root_of[hi]) for lo, hi in poly._pairs if root_of[lo] != root_of[hi]}
        roots = sorted(set(root_of))
        index = {r: i for i, r in enumerate(roots)}
        reach = [{i} for i in range(len(roots))]
        grown = True
        while grown:
            grown = False
            for a, b in edges:
                ia, ib = index[a], index[b]
                if not reach[ib] <= reach[ia]:
                    reach[ia] |= reach[ib]
                    grown = True
        merged_any = False
        for i, j in itertools.combinations(range(len(roots)), 2):
            if j in reach[i] and i in reach[j]:
                merged_any |= uf.find(roots[i]) != uf.find(roots[j])
                uf.union(roots[i], roots[j])
        if merged_any:
            continue
        # value a_l gets proxy -l so that a_1 > ... > a_{k+1} matches the
        # integer order
        lo_bound = [-poly.num_values] * len(roots)
        hi_bound = [-1] * len(roots)
        for r, val in pin.items():
            lo_bound[index[r]] = hi_bound[index[r]] = -val
        moved = True
        while moved:
            moved = False
            for a, b in edges:
                ia, ib = index[a], index[b]
                if lo_bound[ib] < lo_bound[ia]:
                    lo_bound[ib] = lo_bound[ia]
                    moved = True
                if hi_bound[ia] > hi_bound[ib]:
                    hi_bound[ia] = hi_bound[ib]
                    moved = True
        squeezed = False
        for i, r in enumerate(roots):
            if lo_bound[i] > hi_bound[i]:
                return None, -1
            if lo_bound[i] == hi_bound[i] and r not in pin:
                uf.union(r, nb - lo_bound[i] - 1)
                squeezed = True
        if not squeezed:
            key = _canonical_key(uf.parent, nb)
            return key, poly.tight_mask(key)


def fresh_intersect(poly, f, g):
    """Reference intersection: saturate the equalities read off both keys
    by bound propagation, with no memo and no containment shortcut.  A box
    pinned to a_l is merged with the value node of a_l.  Returns the key and
    its tight mask."""
    if f.is_empty or g.is_empty:
        return None, -1
    nb = len(poly.boxes)
    merges = []
    for key in (f.key, g.key):
        groups: dict[int, list[int]] = {}
        for idx, v in enumerate(key):
            if v < 0:
                merges.append((idx, nb - v - 1))
            else:
                groups.setdefault(v, []).append(idx)
        for members in groups.values():
            merges.extend(zip(members, members[1:]))
    return saturate_by_bounds(poly, merges)


def is_extreme(poly, values) -> bool:
    """Reference vertex test: every equal-value component of boxes must
    touch a forced cell; otherwise the component can drift and the point is
    not a vertex."""

    def val(cell):
        idx = poly.box_index.get(cell)
        return values[idx] if idx is not None else poly.diagram.forced_value(cell)

    uf = _UnionFind(len(poly.boxes))
    anchored = [False] * len(poly.boxes)
    for lo, hi in poly.diagram.adjacent_pairs():
        if val(lo) != val(hi):
            continue
        lo_idx, hi_idx = poly.box_index.get(lo), poly.box_index.get(hi)
        if lo_idx is not None and hi_idx is not None:
            uf.union(lo_idx, hi_idx)
        elif lo_idx is not None:
            anchored[lo_idx] = True
        elif hi_idx is not None:
            anchored[hi_idx] = True
    roots_ok = {uf.find(i) for i, a in enumerate(anchored) if a}
    return all(uf.find(i) in roots_ok for i in range(len(poly.boxes)))


def facet_set_by_values(vertex) -> frozenset:
    """Reference facet test: the facet of an effective edge holds the vertex
    when the two cells of the edge carry the same value."""
    poly = vertex.poly
    out = []
    for edge in poly.diagram.effective_edges:
        a, b = poly.diagram.edge_cells(edge)
        if value_of(vertex, a) == value_of(vertex, b):
            out.append(edge)
    return frozenset(out)


def candidates_by_columns(poly):
    """Reference enumerator of the same assignments: sweep the columns right
    to left, each top to bottom, so that the two constraining neighbours
    (above and to the right) are always known."""
    order = sorted(poly.boxes, key=lambda cr: (-cr[0], -cr[1]))
    values = {}
    found = []

    def known(cell):
        if cell in values:
            return values[cell]
        return poly.diagram.forced_value(cell)

    def rec(pos):
        if pos == len(order):
            found.append(tuple(values[c] for c in poly.boxes))
            return
        c, r = order[pos]
        # value index grows as the actual value shrinks: the cell above
        # bounds l from below, the cell to the right from above
        for l in range(known((c, r + 1)), known((c + 1, r)) + 1):
            values[(c, r)] = l
            rec(pos + 1)
        del values[(c, r)]

    rec(0)
    return found


def candidate_points(poly):
    """Every assignment of block-value indices to the boxes that satisfies
    the order constraints, read off the integral patterns whose top row
    takes the value k+2-l on block l, so that a_l is the integer k+2-l."""
    shape = poly.shape
    top = shape.k + 2
    lam = tuple(top - shape.block_of(c) for c in range(1, shape.n + 1))
    return [
        tuple(top - pattern[c + r - 2][c - 1] for (c, r) in poly.boxes)
        for pattern in poly.lattice_points(lam)
    ]


def vertex_set(poly, f) -> frozenset:
    """Vertices of the face, found by key-walking containment."""
    return frozenset(v for v in poly.vertices() if key_contains(f, v))


def reachable_faces(poly):
    """Every nonempty face reachable from the whole polytope by facet
    intersections."""
    seen = {whole_face(poly)}
    frontier = [whole_face(poly)]
    while frontier:
        new = []
        for f in frontier:
            for e in poly.diagram.effective_edges:
                g = intersect(poly, f, facet_face(poly, e))
                if not g.is_empty and g not in seen:
                    seen.add(g)
                    new.append(g)
        frontier = new
    return sorted(seen)


def check_faces(poly, faces):
    """Per face: the mask is the tight set of the key derived from it;
    across faces, distinct masks have distinct keys."""
    for f in faces:
        assert f.mask == poly.tight_mask(f.key), f
    assert len({f.key for f in faces}) == len(set(faces))


def check_containment(poly, faces):
    """Mask, key-walking and vertex-set containment agree on all pairs."""
    verts = {f: vertex_set(poly, f) for f in faces}
    pairs = 0
    for f, g in itertools.product(faces, repeat=2):
        by_mask = contains(f, g)
        assert by_mask == key_contains(f, g), (f, g)
        assert by_mask == (verts[g] <= verts[f]), (f, g)
        pairs += 1
    return pairs


def check_intersections(poly, pairs):
    """The memoised intersection, on a miss and on the following hit, has
    the key and the mask of a fresh saturation."""
    for f, g in pairs:
        expected = fresh_intersect(poly, f, g)
        for got in (intersect(poly, f, g), intersect(poly, g, f)):
            assert (got.key, got.mask) == expected, (f, g)


def check_edge_ids(poly, faces):
    """The edges read off the masks of a nonempty face are the edges whose
    facets hold every vertex of the face by the value test; a face of
    dimension 0 is its entry in the vertex list."""
    edges = frozenset(poly.diagram.effective_edges)
    listed = {v.values: v for v in poly.vertices()}
    points = 0
    for f in faces:
        on_all = edges.intersection(*(facet_set_by_values(v) for v in vertex_set(poly, f)))
        assert f.edge_ids() == sorted(f"{k}({a},{b})" for k, a, b in on_all), f
        if f.dim == 0:
            v = listed[f.values]
            assert f == v and hash(f) == hash(v) and f.key == v.key, f
            points += 1
    assert points == len(listed)


def gr25_named_faces(poly):
    parts = [(a, b) for a in range(4) for b in range(a + 1)]
    named = [poly.named_face_F(mu) for mu in parts]
    named += [poly.named_face_Fvee(mu) for mu in parts]
    named += [poly.delta_k_face(k) for k in (1, 2, 3)]
    return named


def fl4_kogan_faces(poly):
    faces = set()
    for window in itertools.permutations(range(1, 5)):
        for opposite in (True, False):
            faces.update(degeneration_union(poly, Permutation(window), opposite))
    return sorted(faces)


class TestExhaustive:
    def test_gr25_all_pairs(self):
        poly = make(2, 5)
        faces = reachable_faces(poly) + [Face(poly, -1)]
        named = gr25_named_faces(poly)
        assert set(named) - {Face(poly, -1)} <= set(faces)
        faces = sorted(set(faces) | set(named))
        check_faces(poly, faces)
        check_edge_ids(poly, [f for f in faces if not f.is_empty])
        assert check_containment(poly, faces) == len(faces) ** 2
        check_intersections(poly, itertools.combinations_with_replacement(faces, 2))

    def test_fl4(self):
        poly = make(1, 2, 3, 4)
        faces = reachable_faces(poly) + [Face(poly, -1)]
        kogan = fl4_kogan_faces(poly)
        assert kogan and set(kogan) <= set(faces)
        check_faces(poly, faces)
        check_edge_ids(poly, faces[:-1])
        assert check_containment(poly, faces) == len(faces) ** 2
        check_intersections(poly, itertools.combinations_with_replacement(faces, 2))

    def test_vertex_faces(self):
        # vertices are faces built without saturation, their keys set by
        # the vertex filter; key and mask must agree with each other and
        # with the key derived from the mask
        for poly in (make(2, 5), make(1, 2, 3, 4)):
            faces = poly.vertices()
            check_faces(poly, faces)
            assert all(f.dim == 0 for f in faces)
            assert all(f.key == poly._key_of_mask(f.mask) for f in faces)


FL5 = make(1, 2, 3, 4, 5)
FL5_EDGES = FL5.diagram.effective_edges


def fl5_face(edges):
    face = whole_face(FL5)
    for e in edges:
        face = intersect(FL5, face, facet_face(FL5, e))
    return face


fl5_faces = st.lists(st.sampled_from(FL5_EDGES), max_size=8).map(fl5_face)


@settings(max_examples=150, deadline=None)
@given(st.lists(fl5_faces, min_size=2, max_size=5))
def test_fl5_sample(faces):
    check_faces(FL5, faces)
    check_containment(FL5, faces)
    check_intersections(FL5, itertools.combinations(faces, 2))


def merge_lists(poly):
    """Merge lists mixing box-box pairs, pins of a box to a value node and
    merges of two value nodes, which make the system empty."""
    nb = len(poly.boxes)
    box = st.integers(0, nb - 1)
    value = st.integers(nb, nb + poly.num_values - 1)
    merge = st.one_of(
        st.sampled_from(poly._pairs),
        st.tuples(box, box),
        st.tuples(box, value),
        st.tuples(value, value),
    )
    return st.lists(merge, max_size=10)


def check_saturate(poly, merges, expected):
    """The closure's tight mask is the reference mask, and the system is
    accepted as a face exactly when the reference key is the key of that
    mask."""
    key, mask = expected
    assert poly._saturate(merges) == mask, merges
    is_face = key == poly._key_of_mask(mask)
    if is_face:
        assert poly._checked(merges).mask == mask, merges
    else:
        with pytest.raises(InputError):
            poly._checked(merges)
    return is_face


@pytest.mark.parametrize(
    "cuts_n", [(1, 2, 3, 4, 5), (3, 7), (2, 4, 6), (1, 2, 3, 4, 5, 6), (1, 3, 5)]
)
def test_saturate_matches_bound_propagation(cuts_n):
    poly = make(*cuts_n)

    @settings(max_examples=200, deadline=None)
    @given(merge_lists(poly))
    def check(merges):
        check_saturate(poly, merges, saturate_by_bounds(poly, merges))

    check()


def test_pairs_order_the_value_nodes():
    # the order graph that _saturate closes has no value chain of its own:
    # on every shape with n <= 8, the adjacent pairs alone lead from the
    # value node of a_{l+1} to that of a_l
    shapes = 0
    for n in range(2, 9):
        for r in range(1, n):
            for cuts in itertools.combinations(range(1, n), r):
                poly = make(*cuts, n)
                nb = len(poly.boxes)
                above = {}
                for lo, hi in poly._pairs:
                    above.setdefault(lo, []).append(hi)
                for l in range(1, poly.num_values):
                    reached, todo = {nb + l}, [nb + l]
                    while todo:
                        for hi in above.get(todo.pop(), ()):
                            if hi not in reached:
                                reached.add(hi)
                                todo.append(hi)
                    assert nb + l - 1 in reached, (cuts, n, l)
                shapes += 1
    assert shapes == 247


@pytest.mark.parametrize("cuts_n", [(2, 5), (1, 2, 3, 4)])
def test_saturate_all_pin_pairs(cuts_n):
    # every pair of pins, so that squeezed blocks and crossing bounds, the
    # two ways the reference finds an empty system, both occur; on a
    # Grassmannian every box ranges over [a_2, a_1], so every pin system is
    # a face, while Fl4 has pins strictly inside a range
    poly = make(*cuts_n)
    nb = len(poly.boxes)
    pins = [(i, nb + l) for i in range(nb) for l in range(poly.num_values)]
    empty = rejected = 0
    for merges in itertools.combinations_with_replacement(pins, 2):
        expected = saturate_by_bounds(poly, merges)
        rejected += not check_saturate(poly, merges, expected)
        empty += expected == (None, -1)
    assert 0 < empty < len(pins) * (len(pins) + 1) // 2
    assert (rejected > 0) != poly.shape.is_grassmannian()


def test_non_face_equality_system_rejected():
    # the middle entry of Fl3 ranges over [a_3, a_1]: pinning it to a_2 is
    # an equality system, but not a face, so no mask can identify it
    fl3 = make(1, 2, 3)
    with pytest.raises(ValueError):
        fl3.face_from_pins({(1, 1): 2})
    assert not fl3.face_from_pins({(1, 1): 1}).is_empty


@pytest.mark.parametrize("cuts_n", [(2, 5), (3, 7), (2, 4, 6), (1, 2, 3, 4), (1, 2, 3, 4, 5)])
def test_vertices_match_anchored_components(cuts_n):
    # the vertex patterns are exactly the candidates the anchored component
    # reference accepts; on a Grassmannian it accepts them all
    poly = make(*cuts_n)
    candidates = candidate_points(poly)
    expected = sorted(vals for vals in candidates if is_extreme(poly, vals))
    assert expected
    assert (len(expected) == len(candidates)) == poly.shape.is_grassmannian()
    assert [v.values for v in poly.vertices()] == expected


VERTEX_COUNTS = {
    (2, 5): 10,
    (3, 7): 35,
    (2, 4, 6): 155,
    (1, 3, 5): 40,
    (1, 3, 4): 14,
    (3, 4, 7): 439,
    (1, 2, 3, 4): 40,
    (1, 2, 3, 4, 5): 358,
    (1, 2, 3, 4, 5, 6): 4884,
}


@pytest.mark.parametrize("cuts_n, count", VERTEX_COUNTS.items())
def test_vertices_match_column_sweep(cuts_n, count):
    # the candidates read off the lattice points are those of the column
    # sweep, and filtering the sweep's candidates gives the vertex list
    poly = make(*cuts_n)
    candidates = sorted(candidates_by_columns(poly))
    assert sorted(candidate_points(poly)) == candidates
    expected = []
    for vals in candidates:
        key = tuple(-v for v in vals)
        if poly._key_of_mask(poly.tight_mask(key)) == key:
            expected.append(vals)
    assert [v.values for v in poly.vertices()] == expected
    assert len(expected) == count


def test_vertex_bound_counts_before_listing(monkeypatch):
    # the bound applies to the vertex count, which is known before any
    # face is built: Fl6 is listed at exactly its count and refused below it
    monkeypatch.setattr(gc_polytope, "MAX_VERTICES", 4884)
    assert len(make(1, 2, 3, 4, 5, 6).vertices()) == 4884
    monkeypatch.setattr(gc_polytope, "MAX_VERTICES", 4883)
    with pytest.raises(UnsupportedShapeError, match="4884 vertices"):
        make(1, 2, 3, 4, 5, 6).vertices()


@pytest.mark.parametrize("cuts_n", [(2, 5), (3, 7), (2, 4, 6), (1, 2, 3, 4), (1, 2, 3, 4, 5)])
def test_vertex_facets_match_values(cuts_n):
    poly = make(*cuts_n)
    for v in poly.vertices():
        assert frozenset(v.facets()) == facet_set_by_values(v), v


def test_memo_hit_derives_no_key():
    # a hit returns the face of the stored mask; its key enters the
    # polytope's key table only when asked for
    gr25 = make(2, 5)
    f, g = (facet_face(gr25, e) for e in gr25.diagram.effective_edges[:2])
    assert not contains(f, g) and not contains(g, f)
    miss = intersect(gr25, f, g)
    hit = intersect(gr25, g, f)
    assert hit == miss and hit.mask not in gr25._keys
    assert hit.key == gr25._keys[hit.mask] == gr25._key_of_mask(hit.mask)
    assert miss.key == hit.key


def test_forced_cells_of_different_values_give_empty_face():
    # both cells are the value nodes of a_1 and a_2, which no face can merge
    gr25 = make(2, 5)
    forced = {c for pair in gr25.diagram.adjacent_pairs() for c in pair if c not in gr25.box_index}
    by_value = {gr25.diagram.forced_value(c): c for c in sorted(forced)}
    a, b = by_value[1], by_value[2]
    assert gr25.face_from_atoms([(a, b)]).is_empty
    assert gr25.face_from_atoms([(a, a)]) == whole_face(gr25)


@pytest.mark.parametrize("cuts_n", [(2, 5), (1, 2, 3, 4)])
def test_meet_does_not_depend_on_the_order(cuts_n):
    # the divisor facet sets of Delta(u, v), met in a drawn order and folded
    # by hand in that order with no sorting and no early exit
    poly = make(*cuts_n)
    n = poly.n
    reps = [
        w
        for w in map(Permutation, itertools.permutations(range(1, n + 1)))
        if poly.shape.in_min_coset_reps(w)
    ]
    perms = st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))

    @settings(max_examples=100, deadline=None)
    @given(perms, st.sampled_from(reps), st.data())
    def check(u, v, data):
        vs = vanishing_schubert(poly.diagram, v)
        paths = [
            idx
            for level in sorted(vs)
            for idx in sorted(u.image(i) for i in vs[level])
        ]
        order = data.draw(st.permutations([divisor_facets(poly, p) for p in paths]))
        expected = delta_uv_by_faces(poly, u, v)
        assert meet(poly, order) == expected
        union = (whole_face(poly),)
        for faces in order:
            union = antichain([intersect(poly, f, g) for f in union for g in faces])
        assert union == expected

    check()


def test_meet_of_no_sets_and_of_an_empty_set():
    gr25 = make(2, 5)
    facets = [facet_face(gr25, e) for e in gr25.diagram.effective_edges[:2]]
    assert meet(gr25, []) == (whole_face(gr25),)
    assert meet(gr25, [facets]) == antichain(facets)
    assert meet(gr25, [facets, ()]) == ()
