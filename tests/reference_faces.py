"""Slow references for faces of Gelfand-Cetlin polytopes.

The package reads the dimension of a face off its saturated key, finds the
reduced Kogan faces by a walk over the reduced prefixes of the target, and
certifies on vertex bitsets.  This module keeps what those replaced, so
that tests can compare the two: the affine rank of a face's vertex set, the
reduced faces found by reading the word of every edge subset of the right
size, and the face algebra of unions of faces with the evaluation that
folds them.  It also builds three faces by name: the whole polytope, the
facet of an effective edge, and the face of a Kogan face.

A union of faces is the tuple of its maximal faces, sorted by mask, as
``antichain`` returns it, and ``meet`` is the one fold of an intersection
of such unions.  The intersection of two faces is the saturation of the
union of their masks, memoised per polytope.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction

from gcschub.certify import Certificate, EvaluationFailure
from gcschub.coeffs import structure_constant
from gcschub.gc_polytope import Face, Polytope
from gcschub.kogan import KoganFace, enumerate_reduced, read_word
from gcschub.ladder import LadderDiagram, Path
from gcschub.pluecker import vanishing_schubert
from gcschub.weyl import (
    Permutation,
    UnsupportedShapeError,
    length,
    longest_element,
    min_coset_rep,
)

# polytope -> {union of two tight masks -> tight mask of their meet}
_MEETS: "weakref.WeakKeyDictionary[Polytope, dict[int, int]]" = weakref.WeakKeyDictionary()
# polytope -> {(u, v) windows -> tight masks of the maximal faces of Delta(u, v)}
_PIECES: "weakref.WeakKeyDictionary[Polytope, dict[tuple, tuple[int, ...]]]" = (
    weakref.WeakKeyDictionary())


# -- faces by name -------------------------------------------------------------


def whole_face(poly: Polytope) -> Face:
    """The whole polytope, the face of the empty equality system."""
    return poly.face_from_atoms([])


def facet_face(poly: Polytope, edge) -> Face:
    """The facet of an effective edge."""
    return Face(poly, poly._facet_masks()[edge])


def kogan_face_to_face(poly: Polytope, kface: KoganFace) -> Face:
    """The equality system of the Kogan face inside the polytope."""
    return poly.face_from_atoms(
        [poly.diagram.edge_cells(e) for e in kface.edges]
    )


# -- unions of faces -----------------------------------------------------------


def contains(f: Face, g: Face) -> bool:
    """Point-set containment: g is a subset of f, that is every inequality
    tight on f is tight on g."""
    return f.mask & ~g.mask == 0


def intersect(poly: Polytope, f: Face, g: Face) -> Face:
    """The face where the tight inequalities of f and of g all hold.  Each
    distinct union of tight masks is saturated once per polytope."""
    if f.poly is not poly or g.poly is not poly:
        raise ValueError("faces belong to a different polytope")
    fm, gm = f.mask, g.mask
    if fm & ~gm == 0:  # g lies in f; this covers an empty g
        return g
    if gm & ~fm == 0:
        return f
    union = fm | gm
    memo = _MEETS.setdefault(poly, {})
    meet_mask = memo.get(union)
    if meet_mask is None:
        meet_mask = poly._saturate([p for i, p in enumerate(poly._pairs) if union >> i & 1])
        memo[union] = meet_mask
    return Face(poly, meet_mask)


def antichain(faces) -> tuple[Face, ...]:
    """The maximal faces, sorted by mask.  A face lies strictly in another
    only when its mask has more tight bits, so it is enough to scan by bit
    count and test each face against the maximal faces kept so far."""
    kept: list[Face] = []
    for f in sorted({f for f in faces if not f.is_empty}, key=lambda f: f.mask.bit_count()):
        if not any(contains(g, f) for g in kept):
            kept.append(f)
    return tuple(sorted(kept))


def meet(poly: Polytope, face_sets) -> tuple[Face, ...]:
    """Maximal faces of the intersection of the unions of the given face
    sets, which need not be antichains.  The fold starts from the whole
    polytope and takes the sets with fewest faces first, purely to keep the
    intermediate antichains small, since the maximal faces of the result do
    not depend on the order; it stops at the first empty result."""
    union = (whole_face(poly),)
    for faces in sorted(face_sets, key=len):
        meets = [intersect(poly, f, g) for f in union for g in faces]
        union = antichain([h for h in meets if not h.is_empty])
        if not union:
            break
    return union


def vertices_of_face(poly: Polytope, face: Face) -> list[Face]:
    if face.is_empty:
        return []
    return [v for v in poly.vertices() if contains(face, v)]


def vertex_bits(poly: Polytope, faces) -> int:
    """The vertex bitset of a union of faces, bit i for the i-th vertex of
    ``poly.vertices()``."""
    return sum(1 << i for i, v in enumerate(poly.vertices()) if any(contains(f, v) for f in faces))


# -- shadows and their evaluation --------------------------------------------------


def divisor_facets(poly: Polytope, path: Path) -> tuple[Face, ...]:
    """The facets of the effective edges on a divisor path."""
    return tuple(facet_face(poly, e) for e in poly.diagram.effective_edges_on(path))


def fold_paths_by_faces(poly: Polytope, paths) -> tuple[Face, ...]:
    """Intersection of the facet unions of the given divisor paths, as its
    maximal faces sorted by mask."""
    return meet(poly, [divisor_facets(poly, p) for p in paths])


def delta_uv_by_faces(poly: Polytope, u: Permutation, v: Permutation) -> tuple[Face, ...]:
    """The set-theoretic intersection, over the divisors cutting out u X^v,
    of the unions of facets on each divisor path, as its maximal faces."""
    vanishing = vanishing_schubert(poly.diagram, v)
    paths = [
        idx
        for level in sorted(vanishing)
        for idx in sorted(u.image(i) for i in vanishing[level])
    ]
    return fold_paths_by_faces(poly, paths)


def degeneration_union(
    poly: Polytope, target: Permutation, opposite: bool
) -> tuple[Face, ...]:
    """Maximal faces of the union a Schubert variety degenerates to: the
    reduced dual Kogan faces with word equal to v for X^v (opposite=True),
    and the reduced Kogan faces with word w_0 u for X_u."""
    if opposite:
        faces = enumerate_reduced(poly.diagram, target, dual=True)
    else:
        w0 = longest_element(poly.n)
        faces = enumerate_reduced(poly.diagram, w0 * target, dual=False)
    return meet(poly, [[kogan_face_to_face(poly, f) for f in faces]])


def evaluate_by_faces(
    poly: Polytope,
    vs: list[Permutation],
    w: Permutation,
    us: list[Permutation],
) -> Certificate | EvaluationFailure:
    """``certify.evaluate`` by folding unions of faces, for valid inputs:
    S is the meet of the pieces' maximal faces, positive-dimensional when
    one of them is, and otherwise its faces are the vertices, sorted by
    values.  Each piece is memoised per polytope under its (u, v) windows."""
    shape = poly.shape
    w0 = longest_element(poly.n)
    pieces = [(w0, min_coset_rep(w0 * w, shape))] + list(zip(us, vs))
    cache = _PIECES.setdefault(poly, {})
    unions = []
    for u, v in pieces:
        key = (u.window, v.window)
        if key not in cache:
            cache[key] = tuple(f.mask for f in delta_uv_by_faces(poly, u, v))
        unions.append([Face(poly, mask) for mask in cache[key]])
    inter = meet(poly, unions)

    oracle = structure_constant(list(vs), w)
    if not inter:
        status = "certified" if oracle == 0 else "mismatch"
        return Certificate(shape, tuple(vs), w, tuple(us), (), 0, oracle, status)
    worst = max(inter, key=lambda f: f.dim)
    if worst.dim > 0:
        return EvaluationFailure(
            "positive_dimension",
            f"maximal face of dimension {worst.dim} with key {worst.key}",
        )
    verts = sorted(inter, key=lambda f: f.values)
    try:
        outside = [v for v in verts if not poly.in_VX(v)]
    except UnsupportedShapeError as exc:
        return EvaluationFailure("unsupported_shape", str(exc))
    if outside:
        return EvaluationFailure(
            "vertex_outside_flag", f"vertex {outside[0].values} not on the flag variety"
        )
    count = len(verts)
    status = "certified" if count == oracle else "mismatch"
    return Certificate(shape, tuple(vs), w, tuple(us), tuple(verts), count, oracle, status)


# -- dimension and Kogan faces ---------------------------------------------------------


def face_dimension_by_rank(poly: Polytope, face: Face) -> int:
    """Affine rank of the face's vertex set; the exact reference for the
    saturation fast path."""
    verts = vertices_of_face(poly, face)
    if not verts:
        return -1
    base = verts[0].values
    rows = [
        [Fraction(v - b) for v, b in zip(vert.values, base)]
        for vert in verts[1:]
    ]
    return _rank(rows)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def reduced_faces_by_subsets(
    diagram: LadderDiagram, target: Permutation, dual: bool
) -> list[KoganFace]:
    """All reduced (dual) Kogan faces whose word multiplies to the target:
    every set of as many edges as the target is long, in the order of
    ``itertools.combinations`` over the effective edges of the kind."""
    if target.n != diagram.n:
        raise ValueError("rank mismatch")
    size = length(target)
    kind = "V" if dual else "H"
    pool = [e for e in diagram.effective_edges if e[0] == kind]
    out = []
    for combo in itertools.combinations(pool, size):
        face = read_word(diagram, combo, dual)
        if face.reduced and face.perm == target:
            out.append(face)
    return out
