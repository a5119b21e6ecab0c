"""Exact face arithmetic on Gelfand-Cetlin polytopes.

The polytope is stored combinatorially: block values are kept symbolic as
indices 1..k+1 with a_1 > a_2 > ... > a_{k+1}, since every strictly
decreasing numeric instantiation yields the same face structure.  A face is
an equality system on the nodes, which are the boxes plus one value node
per block value a_l, given as a set of node merges: pinning a box to a_l
merges it with the value node of a_l.  Saturation closes one graph
transitively: the order graph of the adjacent-pair constraints, which
already orders the value nodes a_{k+1} <= ... <= a_1, with each merge added
as an edge both ways.  A class is a strongly connected component of the
closed graph, and two value nodes in one class make the system infeasible.
Saturation returns the tight mask, read off equal reach sets: every node
reaches itself, so the two nodes of a pair share a class exactly when they
reach the same nodes.  Saturation makes feasibility, dimension and
containment exact for these systems, and the vertex-rank oracle double
checks that in the tests.

A face is its tight mask, the set of adjacent-pair inequalities it makes
tight, kept as a bitmask, and stores nothing else: a face lies in another
when the other's mask is a subset of its own.  The saturated key is
derived from the mask on demand, by merging the tight pairs; a vertex key
is read off its pattern.

A vertex is a 0-dimensional face, the face of its tight mask.  On the
lattice points whose top row takes the value k+2-l on block l, a point is
a vertex exactly when every class of entries joined by equal adjacent
values is anchored, that is touches the top row (An-Cho-Kim).  An entry
that equals neither of its upper neighbours lies strictly between them, so
its class holds its value, no other entry of its row has that value, and
no entry of its row or above can join the class: it is closed off
unanchored where it starts.  Hence a vertex pattern is built row by row
downwards, each entry taking the value of one of its two upper neighbours,
and every such pattern is a vertex, each class running up to the top row.
What lies below a row depends on its values alone, so the rows below each
row are found once per call, with the number of patterns under it; the
count is known before any face is built, and ``vertices`` refuses a
polytope with more than ``MAX_VERTICES``.  Each vertex key is read off its
pattern.  The facets through a face are read off the masks, those whose
mask is a subset of its own.  A set of vertices is a bitset, bit i standing
for the i-th vertex of ``vertices``; ``vertex_bitsets`` gives the whole
vertex set and the vertices on each facet.

A face refers to its polytope, so the polytope caches masks and keys, never
faces, and reference counting alone frees it.  Each polytope owns these
caches, which live as long as it does:

* ``_keys``, the key table: tight mask -> saturated key, filled by
  ``vertices`` and by the first read of a face's ``key``;
* ``_vertices``: the vertex masks, sorted by values;
* ``_facets``: effective edge -> tight mask of its facet;
* ``_facet_bits``: effective edge -> vertex bitset of its facet, built once
  from the vertex masks;
* ``delta_cache``: (u, v) windows -> the piece Delta(u, v), its vertex
  bitset and, per divisor path, the vertex bitsets of the facets on that
  path (``pluecker.Piece``), filled by ``certify.evaluate``.

The other caches are the unbounded ``lru_cache``s ``coeffs._monk``,
``coeffs._row``, ``weyl._inversions`` and ``weyl._reduced_word_cached``.
They are pure functions of permutation windows, shared by every polytope,
so they stay process-wide.  After the Fl5 partition and its 74,199 oracle
calls they held 476, 8,165, 120 and 119 entries, and clearing the two
``coeffs`` caches freed 1.98 MiB.  ``certify._all_perms`` holds S_n in
search order once per n, and ``ladder._check_lambda`` remembers up to 256
weights that passed ``validate_lambda``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .ladder import (
    Cell,
    EdgeKey,
    LadderDiagram,
    Pattern,
    path_of_partition,
    validate_lambda,
)
from .weyl import InputError, UnsupportedShapeError

MAX_VERTICES = 200_000
"""The most vertices ``Polytope.vertices`` lists, and the most lattice
points ``Polytope.lattice_points`` lists.  Fl7 has 99,665 vertices, whose
masks and keys take about 45 MB under CPython 3.11; Fl8 has 3,000,736,
which would need about 1.5 GB.  On Fl6, lambda = (6,5,4,3,2,1) has 32,768
lattice points and (12,10,8,6,4,2) has 14,348,907."""


@dataclass(frozen=True, order=True, slots=True)
class Face:
    """Face of a polytope, identified by its tight mask: bit i of ``mask``
    is set when the inequality ``poly._pairs[i]`` holds with equality on
    the face, and the empty face has mask -1.  Faces compare, hash and sort
    by mask alone.  A face is a view made on read: the polytope keeps masks,
    never faces.

    ``key`` is the saturated equality system, read from the polytope's key
    table: every box is -l (merged with the value node of a_l) or a
    positive block number given by first occurrence; ``None`` marks the
    empty face.
    """

    poly: "Polytope" = field(compare=False)
    mask: int

    @property
    def key(self) -> tuple[int, ...] | None:
        return self.poly._key(self.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == -1

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return len({v for v in self.key if v > 0})

    @property
    def values(self) -> tuple[int, ...]:
        """Block-value index of every box, on a 0-dimensional face."""
        key = self.key
        if key is None or any(v > 0 for v in key):
            raise ValueError(f"face of dimension {self.dim} is not a vertex")
        return tuple(-v for v in key)

    def facets(self) -> list[EdgeKey]:
        """The effective edges whose facets contain this face: those whose
        facet mask is a subset of this face's mask."""
        mask = self.mask
        return [e for e, m in self.poly._facet_masks().items() if m & ~mask == 0]

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
        # the caches hold masks and keys, never faces (see the module
        # docstring); the key table maps a tight mask to its key
        self._keys: dict[int, tuple[int, ...] | None] = {}
        # vertex masks, sorted by values
        self._vertices: list[int] | None = None
        # effective edge -> tight mask of its facet
        self._facets: dict[EdgeKey, int] = {}
        # effective edge -> vertex bitset of its facet
        self._facet_bits: dict[EdgeKey, int] = {}
        # (u, v) windows -> the piece Delta(u, v), a pluecker.Piece, filled
        # by certify.evaluate
        self.delta_cache: dict[tuple, tuple] = {}

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

    def _facet_masks(self) -> dict[EdgeKey, int]:
        """The tight mask of the facet of every effective edge, in the
        order of ``diagram.effective_edges``, built on first use."""
        if not self._facets:
            for e in self.diagram.effective_edges:
                self._facets[e] = self.face_from_atoms([self.diagram.edge_cells(e)]).mask
        return self._facets

    def face_from_atoms(self, atoms) -> Face:
        """Build the face from (cellA, cellB) equality atoms; a forced cell
        is its value node."""
        return self._checked([(self._node(a), self._node(b)) for a, b in atoms])

    def face_from_pins(self, pin_cells: dict[Cell, int]) -> Face:
        """Build the face pinning each box to its block value a_l."""
        nb = len(self.boxes)
        return self._checked([(self.box_index[c], nb + l - 1) for c, l in pin_cells.items()])

    def _checked(self, merges) -> Face:
        """An equality system given from outside must cut out a face of the
        polytope, the set of points where its tight inequalities hold with
        equality; pinning a box strictly inside its range does not.  Within
        a class every edge of the closed graph is a pair or a merge, so the
        system is a face exactly when every merge holds on the key of its
        tight mask."""
        mask = self._saturate(merges)
        if mask != -1:
            values = self._key(mask) + self._const_values
            if any(values[a] != values[b] for a, b in merges):
                raise InputError(f"equality system {merges} is not a face of the polytope")
        return Face(self, mask)

    # -- tight masks -----------------------------------------------------------

    def tight_mask(self, key: tuple[int, ...] | None) -> int:
        """Bit i set when the inequality ``_pairs[i]`` holds with equality
        everywhere on the face with this saturated key; -1 for the empty
        face."""
        if key is None:
            return -1
        return self._tight_pairs(key + self._const_values)

    def _tight_pairs(self, label) -> int:
        """Bit i set when the two nodes of ``_pairs[i]`` carry one label."""
        mask = 0
        bit = 1
        for lo, hi in self._pairs:
            if label[lo] == label[hi]:
                mask |= bit
            bit <<= 1
        return mask

    def _key(self, mask: int) -> tuple[int, ...] | None:
        """Key of the face with this tight mask, from the key table, which
        derives it on first use."""
        key = self._keys.get(mask)
        if key is None:
            key = self._keys[mask] = self._key_of_mask(mask)
        return key

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

    def _saturate(self, merges) -> int:
        """Close an equality system given as node merges.  A merge is an
        edge both ways in the order graph, and a class is a strongly
        connected component of the closed graph; the system is empty when
        two value nodes share a class.  Returns the tight mask, -1 when
        empty."""
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
        # they reach the same nodes
        if len(set(reach[len(self.boxes):])) != self.num_values:
            return -1
        return self._tight_pairs(reach)

    # -- vertices -----------------------------------------------------------------

    def vertices(self) -> list[Face]:
        """All 0-dimensional faces, sorted by values, enumerated once; the
        masks are cached and their keys enter the key table.  Raises
        UnsupportedShapeError when there are more than MAX_VERTICES."""
        if self._vertices is None:
            # the top row takes the value k+2-l on block l, so that a_l is
            # the integer k+2-l
            top = self.shape.k + 2
            lam = tuple(top - self.shape.block_of(c) for c in range(1, self.n + 1))
            table: dict[tuple[int, ...], tuple[int, list]] = {}
            count = _count_patterns(lam, table)
            if count > MAX_VERTICES:
                raise UnsupportedShapeError(
                    f"shape {self.shape} has {count} vertices; at most {MAX_VERTICES} are listed"
                )
            keys = [
                tuple(pattern[c + r - 2][c - 1] - top for c, r in self.boxes)
                for pattern in _vertex_patterns(lam, table, [])
            ]
            # a key is the negated values, so descending keys sort by values
            keys.sort(reverse=True)
            self._vertices = [self.tight_mask(key) for key in keys]
            self._keys.update(zip(self._vertices, keys))
        return [Face(self, mask) for mask in self._vertices]

    def vertex_bitsets(self) -> tuple[int, dict[EdgeKey, int]]:
        """The bitset of all vertices and the table from effective edge to
        the vertex bitset of its facet, bit i standing for the i-th vertex
        of ``vertices()``.  The table is built once, after the vertices are
        listed, so it raises UnsupportedShapeError above MAX_VERTICES."""
        if not self._facet_bits:
            self.vertices()
            # a vertex lies on a facet when the facet's mask is a subset of
            # its own; the first digit of a numeral is its top bit
            masks = self._vertices[::-1]
            for e, fm in self._facet_masks().items():
                self._facet_bits[e] = int("".join("1" if m & fm == fm else "0" for m in masks), 2)
        return (1 << len(self._vertices)) - 1, self._facet_bits

    def vertices_in(self, bits: int) -> list[Face]:
        """The vertices whose bits are set, sorted by values."""
        masks = self._vertices
        out = []
        while bits:
            low = bits & -bits
            out.append(Face(self, masks[low.bit_length() - 1]))
            bits ^= low
        return out

    # -- regularity and membership in the flag variety -----------------------------

    def is_regular(self, v: Face) -> bool:
        if not self.shape.is_complete():
            raise UnsupportedShapeError("regular vertices are defined for complete flags")
        return len(v.facets()) == self.n * (self.n - 1) // 2

    def in_VX(self, v: Face) -> bool:
        """Whether the coordinate point of the vertex lies on the flag
        variety: always for Grassmannians; the no-constant-2x2-square
        criterion for complete flags.  A face that is not a vertex is a
        ValueError on every shape."""
        key = v.key
        if key is None or max(key, default=0) > 0:
            raise ValueError(f"{v} is not a vertex")
        if self.shape.is_grassmannian():
            return True
        if not self.shape.is_complete():
            raise UnsupportedShapeError(
                f"membership in the flag variety is not characterized for shape {self.shape}"
            )
        values = key + self._const_values
        node = self._node
        for i in range(1, self.n - 1):
            for j in range(1, i + 1):
                r = i - j + 1
                if (values[node((j, r))] == values[node((j, r + 1))]
                        == values[node((j + 1, r))] == values[node((j + 1, r + 1))]):
                    return False
        return True

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
            for r in range(1, p[c - 1] - c + 1):
                pins[(c, r)] = 2
        return self.face_from_pins(pins)

    def named_face_Fvee(self, mu: tuple[int, ...]) -> Face:
        """All boxes above the path of mu pinned to the top value a."""
        self._require_grassmannian()
        m = self.shape.cuts[0]
        p = path_of_partition(tuple(mu), m, self.n)
        pins = {}
        for c in range(1, m + 1):
            for r in range(p[c - 1] - c + 1, self.n - m + 1):
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
        merges = [(self._node((1, k)), self._node((1, k + 1)))]
        if k > 1:
            merges.append((self._node((2, k - 1)), self._node((2, k))))
        else:  # box (2, 1) pinned to b
            merges.append((self.box_index[(2, 1)], len(self.boxes) + 1))
        return self._checked(merges)

    # -- lattice points --------------------------------------------------------------

    def lattice_points(self, lam: tuple[int, ...]) -> list[Pattern]:
        """All integral Gelfand-Cetlin patterns with top row lam, counted
        first by ``lattice_point_count``.  Raises UnsupportedShapeError
        when there are more than MAX_VERTICES."""
        validate_lambda(self.shape, lam)
        count = lattice_point_count(lam)
        if count > MAX_VERTICES:
            raise UnsupportedShapeError(
                f"lambda {lam} has {count} lattice points; at most {MAX_VERTICES} are listed"
            )
        return list(_patterns([tuple(lam)]))


def lattice_point_count(lam: tuple[int, ...]) -> int:
    """Number of integral Gelfand-Cetlin patterns with the weakly decreasing
    top row lam, by Weyl's dimension formula
    prod_{i<j} (lam_i - lam_j + j - i) / (j - i), in exact integers."""
    pairs = list(itertools.combinations(range(len(lam)), 2))
    return (math.prod(lam[i] - lam[j] + j - i for i, j in pairs)
            // math.prod(j - i for i, j in pairs))


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


def _rows_below(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The rows below ``row`` in a vertex pattern: each entry takes the
    value of one of its two upper neighbours.  Below a row of one entry is
    the empty row."""
    return list(itertools.product(*(
        (row[j],) if row[j] == row[j + 1] else (row[j], row[j + 1])
        for j in range(len(row) - 1)
    )))


def _count_patterns(row: tuple[int, ...], table: dict) -> int:
    """Number of vertex patterns with top row ``row``.  Fills ``table``
    with each row met -> (that number, the rows below it)."""
    if not row:
        return 1
    got = table.get(row)
    if got is None:
        below = _rows_below(row)
        got = table[row] = (sum(_count_patterns(r, table) for r in below), below)
    return got[0]


def _patterns(rows: list[tuple[int, ...]]):
    """The interlacing patterns whose top rows are ``rows``, top first,
    generated row by row, bottom row first."""
    above = rows[-1]
    if len(above) == 1:
        yield tuple(reversed(rows))
        return
    ranges = [range(above[j], above[j - 1] + 1) for j in range(1, len(above))]
    for row in itertools.product(*ranges):
        rows.append(row)
        yield from _patterns(rows)
        rows.pop()


def _vertex_patterns(row: tuple[int, ...], table: dict, rows: list[tuple[int, ...]]):
    """The vertex patterns with the counted ``row`` below the rows above
    it, ``rows``, top first; bottom row first."""
    if not row:
        yield tuple(reversed(rows))
        return
    rows.append(row)
    for below in table[row][1]:
        yield from _vertex_patterns(below, table, rows)
    rows.pop()

