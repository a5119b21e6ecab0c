"""Slow references for faces of Gelfand-Cetlin polytopes.

The package reads the dimension of a face off its saturated key, reads
that key off the reach sets of the closure of the tight pairs, reads each
facet off the bit of its edge's pair, pins the boxes of a named face by
merging them with forced cells, finds the reduced Kogan faces by a walk
over the reduced prefixes of the target and builds each Kogan face from
its positions in the reference word, certifies on vertex bitsets, tests
whether two vertices span a face inside the shadow on their tight masks,
and lists the vertices with their tight masks in one walk of the pattern
table, testing regularity and flag membership on the masks.  This module
keeps what those replaced, so that tests can compare the two: the affine
rank of a face's vertex set, the reader of the word of an edge set, the
reduced faces found by reading the word of every edge subset of the right
size, the face algebra of unions of faces with the evaluation that folds
them, the pair scan on the vertex bitsets of the facets, the vertex
listing that builds every pattern and takes the tight mask of its key, the
facet count of a vertex, the flag test on its cell values, the key of a
tight mask by a union-find forest of its tight pairs, the path order, and
the vanishing set of X^v, a dict from each cut level to the index tuples I
with p_I = 0, from which a piece's divisor set and row are built where
``pluecker.delta_uv`` builds the row in one pass over the paths, comparing
each I with v's prefix step by step, and ``piece_table`` reads the rows
the polytope keeps.  It also builds four faces by name:
the whole polytope, the facet of an effective edge by saturation, the face
of a set of pinned boxes, and the face of a Kogan face.

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
from gcschub.gc_polytope import Face, Polytope, _count_patterns
from gcschub.kogan import KoganFace, _letter, enumerate_reduced
from gcschub.ladder import LadderDiagram, Path
from gcschub.weyl import (
    Permutation,
    UnsupportedShapeError,
    length,
    longest_element,
    min_coset_rep,
)

# cut level -> the index tuples I with p_I = 0 at that level
Vanishing = dict[int, frozenset[Path]]

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
    """The facet of an effective edge, the saturation of its two cells'
    equality."""
    return poly.face_from_atoms([poly.diagram.edge_cells(edge)])


def face_from_pins(poly: Polytope, pin_cells: dict) -> Face:
    """The face pinning each box to its block value a_l, merged with the
    value node of a_l."""
    nb = len(poly.boxes)
    return poly._checked([(poly.box_index[c], nb + l - 1) for c, l in pin_cells.items()])


def kogan_face_to_face(poly: Polytope, kface: KoganFace) -> Face:
    """The equality system of the Kogan face inside the polytope."""
    return poly.face_from_atoms(
        [poly.diagram.edge_cells(e) for e in kface.edges]
    )


# -- vertices ------------------------------------------------------------------


def tight_mask(poly: Polytope, key: tuple[int, ...] | None) -> int:
    """Bit i set when the inequality ``poly._pairs[i]`` holds with equality
    everywhere on the face with this saturated key; -1 for the empty
    face."""
    if key is None:
        return -1
    return poly._tight_pairs(key + poly._const_values)


def canonical_key(parent: list[int], nb: int) -> tuple[int, ...]:
    """Key of a union-find forest on the boxes and the value nodes after
    them, whose roots are the least index of their class: -l for a box in
    the class of the value node of a_l, block numbers by first occurrence
    for the other boxes."""
    pin: dict[int, int] = {}
    for l, root in enumerate(range(nb, len(parent)), start=1):
        while parent[root] != root:
            root = parent[root]
        pin[root] = l
    key = [0] * nb
    blocks = 0
    for i in range(nb):
        root = i
        while parent[root] != root:
            root = parent[root]
        if root != i:
            key[i] = key[root]
        elif i in pin:
            key[i] = -pin[i]
        else:
            blocks += 1
            key[i] = blocks
    return tuple(key)


def key_by_union_find(poly: Polytope, mask: int) -> tuple[int, ...] | None:
    """Key of the face whose tight set is the saturated mask, by merging its
    tight pairs in a union-find forest: its equalities are exactly the
    tight pairs, so no closure is needed."""
    if mask == -1:
        return None
    nb = len(poly.boxes)
    parent = list(range(nb + poly.num_values))
    bit = 1
    for lo, hi in poly._pairs:
        if mask & bit:
            while parent[lo] != lo:
                lo = parent[lo]
            while parent[hi] != hi:
                hi = parent[hi]
            if lo < hi:
                parent[hi] = lo
            elif hi < lo:
                parent[lo] = hi
        bit <<= 1
    return canonical_key(parent, nb)


def vertex_patterns(row: tuple[int, ...], table: dict, rows: list[tuple[int, ...]]):
    """The vertex patterns with the counted ``row`` below the rows above
    it, ``rows``, top first; bottom row first."""
    if not row:
        yield tuple(reversed(rows))
        return
    rows.append(row)
    for below in table[row][1]:
        yield from vertex_patterns(below, table, rows)
    rows.pop()


def vertices_by_patterns(poly: Polytope) -> list[tuple[tuple[int, ...], int]]:
    """(key, tight mask) of every vertex, sorted by values: each pattern
    is built, its key read off cell by cell, and its mask taken pair by
    pair."""
    # the top row takes the value k+2-l on block l, so that a_l is the
    # integer k+2-l
    top = poly.shape.k + 2
    lam = tuple(top - poly.shape.block_of(c) for c in range(1, poly.n + 1))
    table: dict = {}
    _count_patterns(lam, table)
    keys = [
        tuple(pattern[c + r - 2][c - 1] - top for c, r in poly.boxes)
        for pattern in vertex_patterns(lam, table, [])
    ]
    # a key is the negated values, so descending keys sort by values
    keys.sort(reverse=True)
    return [(key, tight_mask(poly, key)) for key in keys]


def is_regular_by_facets(poly: Polytope, v: Face) -> bool:
    """Regularity by listing the facets through the face."""
    if not poly.shape.is_complete():
        raise UnsupportedShapeError("regular vertices are defined for complete flags")
    return len(v.facets()) == poly.n * (poly.n - 1) // 2


def in_VX_by_values(poly: Polytope, v: Face) -> bool:
    """Flag membership on the cell values of the vertex: no 2x2 square of
    cells carries one value."""
    key = v.key
    if key is None or max(key, default=0) > 0:
        raise ValueError(f"{v} is not a vertex")
    if poly.shape.is_grassmannian():
        return True
    if not poly.shape.is_complete():
        raise UnsupportedShapeError(
            f"membership in the flag variety is not characterized for shape {poly.shape}"
        )
    values = key + poly._const_values
    node = poly._node
    for i in range(1, poly.n - 1):
        for j in range(1, i + 1):
            r = i - j + 1
            if (values[node((j, r))] == values[node((j, r + 1))]
                    == values[node((j + 1, r))] == values[node((j + 1, r + 1))]):
                return False
    return True


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


def path_leq(p: Path, q: Path) -> bool:
    """p <= q iff p has at least as many horizontal steps and runs below q."""
    return len(p) >= len(q) and all(a <= b for a, b in zip(p, q))


def w_divisor(u: Permutation, level: int) -> Path:
    """The divisor path of u X^{s_level}, 1 <= level < n: horizontal steps
    u({1..level})."""
    if not 1 <= level < u.n:
        raise ValueError(f"level out of range: {level}")
    return u.image(range(1, level + 1))


def vanishing_schubert(diagram: LadderDiagram, v: Permutation) -> Vanishing:
    """Vanishing coordinates of X^v on the diagram's flag variety, level by
    level."""
    shape = diagram.shape
    if v.n != shape.n:
        raise ValueError(f"rank mismatch: {v.n} vs {shape.n}")
    if not shape.in_min_coset_reps(v):
        raise ValueError(f"{v} is not a minimal coset representative for {shape}")
    data = {}
    for level in shape.cuts:
        ref = w_divisor(v, level)
        dead = set()
        for p in diagram.paths_at_level(level):
            if not path_leq(ref, p):
                dead.add(p)
        data[level] = frozenset(dead)
    return data


def delta_uv_paths(poly: Polytope, u: Permutation, v: Permutation) -> frozenset[Path]:
    """The divisors cutting out u X^v, the index tuples u(I) for I in the
    vanishing set of v."""
    vanishing = vanishing_schubert(poly.diagram, v)
    return frozenset(u.image(i) for paths in vanishing.values() for i in paths)


def piece_table(poly: Polytope) -> dict[tuple, tuple[int, frozenset[int]]]:
    """The rows the polytope keeps, under the (u, v) windows of each piece
    that ``Polytope.piece`` built."""
    return poly._pieces


def divisor_row(poly: Polytope, paths) -> tuple[int, frozenset[int]]:
    """The row of the divisors of the given index tuples, built through the
    divisor table: the AND of their unions and the set of their masks."""
    return divisor_bits(poly, paths), frozenset(poly.divisor(p)[1] for p in paths)


def divisor_bits(poly: Polytope, paths) -> int:
    """The vertex bitset of the intersection of the divisors of the given
    index tuples: the AND of their unions in the polytope's divisor
    table."""
    bits = poly.vertex_bitsets()[0]
    for p in paths:
        bits &= poly.divisor(p)[0]
    return bits


def pair_on_one_face_by_facets(poly: Polytope, paths) -> tuple[int, int] | None:
    """Two vertices of the intersection S of the divisors of the given
    index tuples that lie on one face inside S, found on facet vertex
    bitsets: every divisor must have a facet that holds both.  The scan
    takes the lowest vertex with a partner, then its lowest partner, and
    returns their positions in ``poly.vertex_masks_in(S)``; None when no two
    vertices qualify."""
    table = poly.vertex_bitsets()[1]
    bits = divisor_bits(poly, paths)
    divisors = [tuple(table[e] for e in poly.diagram.effective_edges_on(p)) for p in paths]
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        # the relation is symmetric, so the vertices after this one suffice
        together = rest
        for facets in divisors:
            near = 0
            for f in facets:
                if f & low:
                    near |= f
            together &= near
            if not together:
                break
        if together:
            high = together & -together
            return (bits & (low - 1)).bit_count(), (bits & (high - 1)).bit_count()
    return None


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
    return fold_paths_by_faces(poly, sorted(delta_uv_paths(poly, u, v), key=lambda p: (len(p), p)))


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


def read_word(diagram: LadderDiagram, edges, dual: bool) -> KoganFace:
    """Read the word of a set of (dual) Kogan edges in the canonical order
    and record whether it is reduced: rows bottom to top, left to right
    within a row for a dual face; columns left to right, bottom to top
    within a column otherwise."""
    if not diagram.shape.is_complete():
        raise ValueError("Kogan faces are defined for complete flag shapes")
    edges = frozenset(edges)
    kind = "V" if dual else "H"
    for e in edges:
        if e[0] != kind:
            raise ValueError(f"{'dual ' if dual else ''}Kogan faces use {kind} edges: {e}")
        if e not in diagram.effective_edges:
            raise ValueError(f"edge {e} is not effective")
    ordered = sorted(edges, key=lambda e: (e[2], e[1]) if dual else (e[1], e[2]))
    word = tuple(_letter(e, diagram.n) for e in ordered)
    perm = Permutation.from_word(word, diagram.n)
    return KoganFace(dual, edges, word, perm, length(perm) == len(word))


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
