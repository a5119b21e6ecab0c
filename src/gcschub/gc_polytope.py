"""Exact face arithmetic on Gelfand-Cetlin polytopes.

The polytope is stored combinatorially: block values are kept symbolic as
indices 1..k+1 with a_1 > a_2 > ... > a_{k+1}, since every strictly
decreasing numeric instantiation yields the same face structure.  A face is
an equality system on the nodes, which are the boxes plus one value node
per block value a_l, given as a set of node merges: pinning a box to a_l
merges it with the value node of a_l.  The system is kept in saturated
canonical form, read off one transitively closed graph: the order graph
of the adjacent-pair constraints, which already orders the value nodes
a_{k+1} <= ... <= a_1, with each merge added as an edge both ways.  A
class is a strongly connected component of the closed graph, and two
value nodes in one class make the system infeasible.  Saturation makes
feasibility, dimension and containment exact for these systems, and the
vertex-rank oracle double checks that in the tests.

A face is its tight mask, the set of adjacent-pair inequalities it makes
tight, kept as a bitmask, and stores nothing else: containment is a subset
test on masks, and the intersection of two faces is the saturation of the
union of their masks.  The saturated key is derived from the mask on
demand, by merging the tight pairs.  The polytope memoises the saturation
per union mask, and also owns the cache of divisor facet unions that
certificate evaluation fills.  A vertex is a 0-dimensional face, the face
of its tight mask: a candidate point is a vertex when the key derived from
its tight mask is the point itself, and the facets through a face are read
off the masks, those whose mask is a subset of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .ladder import (
    Cell,
    EdgeKey,
    LadderDiagram,
    Pattern,
    path_of_partition,
    validate_lambda,
)
from .weyl import InputError, UnsupportedShapeError


@dataclass(frozen=True, order=True)
class Face:
    """Face of a polytope, identified by its tight mask: bit i of ``mask``
    is set when the inequality ``poly._pairs[i]`` holds with equality on
    the face, and the empty face has mask -1.  Faces compare, hash and sort
    by mask alone.

    ``key`` is the saturated equality system, derived from the mask on
    first use: every box is -l (merged with the value node of a_l) or a
    positive block number given by first occurrence; ``None`` marks the
    empty face.
    """

    poly: "Polytope" = field(compare=False)
    mask: int

    @cached_property
    def key(self) -> tuple[int, ...] | None:
        return self.poly._key_of_mask(self.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == -1

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return len({v for v in self.key if v > 0})

    def contains(self, other: "Face") -> bool:
        """Point-set containment: other is a subset of self, that is every
        inequality tight on self is tight on other."""
        return self.mask & ~other.mask == 0

    @property
    def values(self) -> tuple[int, ...]:
        """Block-value index of every box, on a 0-dimensional face."""
        key = self.key
        if key is None or any(v > 0 for v in key):
            raise ValueError(f"face of dimension {self.dim} is not a vertex")
        return tuple(-v for v in key)

    def value_of(self, cell: Cell) -> int:
        """Block-value index of any cell the face fixes, box or forced."""
        poly = self.poly
        i = poly.box_index.get(cell)
        if i is None:
            return poly.diagram.forced_value(cell)
        key = self.key
        if key is None or key[i] > 0:
            raise ValueError(f"{self} does not fix box {cell}")
        return -key[i]

    def pattern(self, lam: tuple[int, ...]) -> Pattern:
        """Numeric Gelfand-Cetlin pattern at this vertex."""
        validate_lambda(self.poly.shape, lam)
        block_val = [lam[c - 1] for c in self.poly.shape.bounds[1:]]
        return tuple(
            tuple(block_val[self.value_of((j, i - j + 1)) - 1] for j in range(1, i + 1))
            for i in range(1, self.poly.n + 1)
        )

    def facets(self) -> list[EdgeKey]:
        """The effective edges whose facets contain this face: those whose
        facet mask is a subset of this face's mask."""
        poly = self.poly
        return [e for e in poly.diagram.effective_edges if poly.facet_face(e).contains(self)]

    def edge_ids(self) -> list[str]:
        """Sorted identifiers of the effective edges whose facets contain
        this face."""
        return sorted(f"{k}({a},{b})" for (k, a, b) in self.facets())

    def __repr__(self) -> str:
        if self.is_empty:
            return "Face(empty)"
        return f"Face(dim={self.dim}, key={self.key})"


class Polytope:
    """Gelfand-Cetlin polytope of a ladder diagram with symbolic block
    values a_1 > ... > a_{k+1}."""

    def __init__(self, diagram: LadderDiagram):
        self.diagram = diagram
        self.shape = diagram.shape
        self.n = diagram.n
        self.boxes: tuple[Cell, ...] = diagram.boxes
        self.box_index = {cell: i for i, cell in enumerate(self.boxes)}
        self.num_values = self.shape.k + 1
        # order constraints (lo, hi) with cells resolved to nodes: a box is
        # its index, a forced cell the value node len(boxes)+l-1 of its a_l.
        self._pairs: list[tuple[int, int]] = []
        for lo, hi in diagram.adjacent_pairs():
            self._pairs.append((self._node(lo), self._node(hi)))
        self._pairs = sorted(set(self._pairs))
        # the order graph that saturation closes, the pairs alone: bit j of
        # _succ[i] is set when node j is node i or one step above it.  Its
        # closure already orders the value nodes a_{k+1} <= ... <= a_1.
        self._succ = [1 << i for i in range(len(self.boxes) + self.num_values)]
        for lo, hi in self._pairs:
            self._succ[lo] |= 1 << hi
        # values of the value nodes: in key + _const_values, entry i is the
        # value of node i
        self._const_values = tuple(-l for l in range(1, self.num_values + 1))
        self._empty = Face(self, -1)
        self._vertices: list[Face] | None = None
        self._facet_cache: dict[EdgeKey, Face] = {}
        # union of two tight masks -> tight mask of the saturated intersection
        self._meet: dict[int, int] = {}
        # divisor facet unions by translation data, filled by certify.evaluate
        self.delta_cache: dict[tuple, FaceUnion] = {}

    def _node(self, cell: Cell) -> int:
        if cell in self.box_index:
            return self.box_index[cell]
        return len(self.boxes) + self.diagram.forced_value(cell) - 1

    @property
    def dim(self) -> int:
        return len(self.boxes)

    @property
    def facet_count(self) -> int:
        return len(self.diagram.effective_edges)

    # -- face construction ---------------------------------------------------

    def whole_face(self) -> Face:
        return Face(self, self._saturate([])[1])

    def empty_face(self) -> Face:
        return self._empty

    def facet_face(self, edge: EdgeKey) -> Face:
        if edge not in self._facet_cache:
            if not self.diagram.is_effective(edge):
                raise ValueError(f"edge {edge} is not effective")
            self._facet_cache[edge] = self.face_from_atoms([self.diagram.edge_cells(edge)])
        return self._facet_cache[edge]

    def face_from_atoms(self, atoms) -> Face:
        """Build the face from (cellA, cellB) equality atoms; a forced cell
        is its value node."""
        return self._checked(*self._saturate([(self._node(a), self._node(b)) for a, b in atoms]))

    def face_from_pins(self, pin_cells: dict[Cell, int]) -> Face:
        """Build the face pinning each box to its block value a_l."""
        nb = len(self.boxes)
        return self._checked(
            *self._saturate([(self.box_index[c], nb + l - 1) for c, l in pin_cells.items()])
        )

    def _checked(self, key: tuple[int, ...] | None, mask: int) -> Face:
        """An equality system given from outside must cut out a face of the
        polytope, the set of points where its tight inequalities hold with
        equality; pinning a box strictly inside its range does not."""
        if self._key_of_mask(mask) != key:
            raise InputError(f"equality system {key} is not a face of the polytope")
        return Face(self, mask)

    # -- tight masks -----------------------------------------------------------

    def tight_mask(self, key: tuple[int, ...] | None) -> int:
        """Bit i set when the inequality ``_pairs[i]`` holds with equality
        everywhere on the face with this saturated key; -1 for the empty
        face."""
        if key is None:
            return -1
        values = key + self._const_values
        mask = 0
        bit = 1
        for lo, hi in self._pairs:
            if values[lo] == values[hi]:
                mask |= bit
            bit <<= 1
        return mask

    def _key_of_mask(self, mask: int) -> tuple[int, ...] | None:
        """Key of the face whose tight set is the saturated mask: its
        equalities are exactly the tight pairs, so no closure is needed."""
        if mask == -1:
            return None
        nb = len(self.boxes)
        parent = list(range(nb + self.num_values))
        bit = 1
        for lo, hi in self._pairs:
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
        return _canonical_key(parent, nb)

    # -- saturation ------------------------------------------------------------

    def _saturate(self, merges) -> tuple[tuple[int, ...] | None, int]:
        """Close an equality system given as node merges.  A merge is an
        edge both ways in the order graph, and a class is a strongly
        connected component of the closed graph; the system is empty when
        two value nodes share a class.  Returns the canonical key and its
        tight mask, (None, -1) when empty."""
        nb = len(self.boxes)
        reach = self._succ[:]
        for a, b in merges:
            reach[a] |= 1 << b
            reach[b] |= 1 << a
        size = len(reach)
        for k in range(size):  # transitive closure; the graphs are tiny
            bit, through = 1 << k, reach[k]
            for i in range(size):
                if reach[i] & bit:
                    reach[i] |= through
        # each node reaches itself, so two nodes share a class exactly when
        # they reach the same nodes; a class is named by its least node
        if len(set(reach[nb:])) != self.num_values:
            return None, -1
        least: dict[int, int] = {}
        key = _canonical_key([least.setdefault(r, i) for i, r in enumerate(reach)], nb)
        return key, self.tight_mask(key)

    # -- face operations --------------------------------------------------------

    def intersect(self, f: Face, g: Face) -> Face:
        """The face where the tight inequalities of f and of g all hold.
        Each distinct union of tight masks is saturated once."""
        if f.poly is not self or g.poly is not self:
            raise ValueError("faces belong to a different polytope")
        fm, gm = f.mask, g.mask
        if fm & ~gm == 0:  # g lies in f; this covers an empty g
            return g
        if gm & ~fm == 0:
            return f
        union = fm | gm
        meet = self._meet.get(union)
        if meet is None:
            meet = self._saturate([p for i, p in enumerate(self._pairs) if union >> i & 1])[1]
            self._meet[union] = meet
        return Face(self, meet)

    # -- vertices -----------------------------------------------------------------

    def vertices(self) -> list[Face]:
        """All 0-dimensional faces, sorted by values, enumerated once and
        cached."""
        if self._vertices is not None:
            return self._vertices
        # sweep columns right to left, each top to bottom, so that the two
        # constraining neighbors (above and to the right) are always known
        order = sorted(self.boxes, key=lambda cr: (-cr[0], -cr[1]))
        values: dict[Cell, int] = {}
        found: list[tuple[int, ...]] = []

        def known(cell: Cell) -> int:
            if cell in values:
                return values[cell]
            return self.diagram.forced_value(cell)

        def rec(pos: int):
            if pos == len(order):
                found.append(tuple(values[c] for c in self.boxes))
                return
            c, r = order[pos]
            # value index grows as the actual value shrinks: the cell above
            # bounds l from below, the cell to the right from above
            for l in range(known((c, r + 1)), known((c + 1, r)) + 1):
                values[(c, r)] = l
                rec(pos + 1)
            del values[(c, r)]

        rec(0)
        # a candidate is a vertex when its tight inequalities cut out a
        # point; the key the filter derives is kept on the face
        self._vertices = []
        for vals in sorted(found):
            key = tuple(-v for v in vals)
            mask = self.tight_mask(key)
            if self._key_of_mask(mask) == key:
                face = Face(self, mask)
                object.__setattr__(face, "key", key)
                self._vertices.append(face)
        return self._vertices

    def vertices_of_face(self, face: Face) -> list[Face]:
        if face.is_empty:
            return []
        return [v for v in self.vertices() if face.contains(v)]

    def face_dimension_by_rank(self, face: Face) -> int:
        """Affine rank of the face's vertex set; the exact reference for the
        saturation fast path."""
        verts = self.vertices_of_face(face)
        if not verts:
            return -1
        base = verts[0].values
        rows = [
            [Fraction(v - b) for v, b in zip(vert.values, base)]
            for vert in verts[1:]
        ]
        return _rank(rows)

    # -- regularity and membership in the flag variety -----------------------------

    def is_regular(self, v: Face) -> bool:
        if not self.shape.is_complete():
            raise UnsupportedShapeError("regular vertices are defined for complete flags")
        return len(v.facets()) == self.n * (self.n - 1) // 2

    def in_VX(self, v: Face) -> bool:
        """Whether the coordinate point of the vertex lies on the flag
        variety: always for Grassmannians; the no-constant-2x2-square
        criterion for complete flags."""
        if self.shape.is_grassmannian():
            return True
        if not self.shape.is_complete():
            raise UnsupportedShapeError(
                f"membership in the flag variety is not characterized for shape {self.shape}"
            )
        n = self.n
        for i in range(1, n - 1):
            for j in range(1, i + 1):
                cells = [(j, i - j + 1), (j, i - j + 2), (j + 1, i - j + 1), (j + 1, i - j + 2)]
                vals = {v.value_of(c) for c in cells}
                if len(vals) == 1:
                    return False
        return True

    def coordinate_point(self, v: Face) -> dict[int, tuple[int, ...]]:
        """Per level, the unique nonvanishing coordinate index: the path
        separating values > a_{i+1} from values <= a_{i+1}."""
        out = {}
        for i, level in enumerate(self.shape.cuts, start=1):
            steps = []
            for c in range(1, level + 1):
                low = sum(
                    1
                    for r in range(1, self.n + 2 - c)
                    if v.value_of((c, r)) >= i + 1
                )
                steps.append(c + low)
            out[level] = tuple(steps)
        return out

    # -- named faces (Grassmannian) ----------------------------------------------

    def _require_grassmannian(self):
        if not self.shape.is_grassmannian():
            raise UnsupportedShapeError(f"operation needs a Grassmannian shape, got {self.shape}")

    def named_face_F(self, mu: tuple[int, ...]) -> Face:
        """All boxes below the path of mu pinned to the bottom value b."""
        self._require_grassmannian()
        m = self.shape.cuts[0]
        p = path_of_partition(tuple(mu), m, self.n)
        pins = {}
        for c in range(1, m + 1):
            for r in range(1, p.steps[c - 1] - c + 1):
                pins[(c, r)] = 2
        return self.face_from_pins(pins)

    def named_face_Fvee(self, mu: tuple[int, ...]) -> Face:
        """All boxes above the path of mu pinned to the top value a."""
        self._require_grassmannian()
        m = self.shape.cuts[0]
        p = path_of_partition(tuple(mu), m, self.n)
        pins = {}
        for c in range(1, m + 1):
            for r in range(p.steps[c - 1] - c + 1, self.n - m + 1):
                pins[(c, r)] = 1
        return self.face_from_pins(pins)

    def delta_k_face(self, k: int) -> Face:
        """For Gr(2, n): the codimension-two face pinning level k to level
        k+1 in both columns, with the boundary conventions reading a and b."""
        self._require_grassmannian()
        if self.shape.cuts[0] != 2:
            raise UnsupportedShapeError("delta_k is defined for Gr(2, n)")
        n = self.n
        if not 1 <= k <= n - 2:
            raise InputError(f"k must be within 1..{n - 2}: {k}")
        atoms = [((1, k), (1, k + 1)), ((2, k - 1), (2, k)) if k > 1 else None]
        atoms = [a for a in atoms if a is not None]
        face = self.face_from_atoms(atoms)
        if k == 1:
            face = self.intersect(face, self.face_from_pins({(2, 1): 2}))
        return face

    # -- lattice points --------------------------------------------------------------

    def lattice_points(self, lam: tuple[int, ...]) -> list[Pattern]:
        """All integral Gelfand-Cetlin patterns with top row lam."""
        validate_lambda(self.shape, lam)
        n = self.n
        rows: list[tuple[int, ...]] = [tuple(lam)]
        out: list[Pattern] = []

        def rec(i: int):
            # build row i-1 below row i
            if i == 1:
                out.append(tuple(reversed(rows)))
                return
            above = rows[-1]
            ranges = [range(above[j], above[j - 1] + 1) for j in range(1, i)]
            for combo in itertools.product(*ranges):
                rows.append(tuple(combo))
                rec(i - 1)
                rows.pop()

        rec(n)
        return out


def _canonical_key(parent: list[int], nb: int) -> tuple[int, ...]:
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


@dataclass(frozen=True)
class FaceUnion:
    """Antichain of maximal faces; the value of all set-theoretic
    intersections of facet unions."""

    poly: Polytope
    faces: tuple[Face, ...]

    @staticmethod
    def whole(poly: Polytope) -> "FaceUnion":
        return FaceUnion(poly, (poly.whole_face(),))

    @staticmethod
    def empty(poly: Polytope) -> "FaceUnion":
        return FaceUnion(poly, ())

    @staticmethod
    def of(poly: Polytope, faces) -> "FaceUnion":
        return FaceUnion(poly, _antichain(faces))

    @property
    def is_empty(self) -> bool:
        return not self.faces

    def max_dim(self) -> int:
        return max((f.dim for f in self.faces), default=-1)

    def intersect(self, other: "FaceUnion") -> "FaceUnion":
        """Pointwise intersection of two unions; ``other`` need not be an
        antichain, so a divisor's facets can be passed as they are."""
        new = []
        for f in self.faces:
            for g in other.faces:
                h = self.poly.intersect(f, g)
                if not h.is_empty:
                    new.append(h)
        return FaceUnion(self.poly, _antichain(new))

    def vertices(self) -> list[Face]:
        """The point set, sorted by values; a maximal face that is not
        0-dimensional raises ValueError."""
        return sorted(self.faces, key=lambda f: f.values)

    def contains_face(self, g: Face) -> bool:
        return any(f.contains(g) for f in self.faces)


def _antichain(faces) -> tuple[Face, ...]:
    """The maximal faces, sorted by mask.  A face lies strictly in another
    only when its mask has more tight bits, so it is enough to scan by bit
    count and test each face against the maximal faces kept so far."""
    kept: list[Face] = []
    for f in sorted({f for f in faces if not f.is_empty}, key=lambda f: f.mask.bit_count()):
        if not any(g.contains(f) for g in kept):
            kept.append(f)
    return tuple(sorted(kept))
