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
The closure gives every node its reach set: every node reaches itself, so
two nodes share a class exactly when they reach the same nodes.
Saturation returns the tight mask, the pairs whose two nodes have one
reach set.  Saturation makes feasibility, dimension and containment exact
for these systems, and the vertex-rank oracle double checks that in the
tests.

A face is its tight mask, the set of adjacent-pair inequalities it makes
tight, kept as a bitmask, and stores nothing else: a face lies in another
when the other's mask is a subset of its own.  The saturated key is
derived from the mask on demand, by the same closure, of the tight pairs
alone: a box whose reach set is that of the value node of a_l is -l, and
the other boxes are numbered by first occurrence of their reach sets.  A
vertex key is read off its pattern.

A vertex is a 0-dimensional face, the face of its tight mask.  On the
lattice points whose top row takes the value -l on block l, a point is
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
polytope with more than ``MAX_VERTICES``.  Every adjacent pair joins an
entry to one of its upper neighbours, so the tight bits of a pattern are
those of its table edges, each a row and a row below it, and these are
found once per edge.  One walk of the table then carries each pattern,
flattened, with the OR of its edges' tight bits: that is the vertex's mask,
and its key is read off the flattened pattern through a fixed list of
entries, the top row's values being the key values -l.

The facets through a face are read off the masks, those whose mask is a
subset of its own.  A facet makes one pair tight, that of its edge's two
cells, so its mask is that pair's bit, and no two facets share one; the
test ``test_facet_is_one_pair_bit`` checks this against the saturation of
each edge's equality on every shape with n <= 7.  A vertex lies on the
facet of bit j when its mask has bit j.  A set of vertices is a bitset,
bit i standing for the i-th vertex of ``vertices``; ``vertex_bitsets``
gives the whole vertex set and the vertices on each facet, each a column
of the vertex masks written as numerals one after another.  A vertex is
regular when its mask has as many facet bits as the polytope's dimension,
and off the flag variety when the mask of the four pairs of some 2x2
square of cells lies in its own.

Every face is built one way, from an equality system on cells through
``face_from_atoms``, which saturates it; the named faces pin boxes to a
block value by merging them with a forced cell of that value.

A Schubert variety is cut out of the ambient product of projective spaces
by coordinate hyperplanes: at each cut level l the Plücker coordinate p_I
vanishes on X^v iff the path of I does not run above the path of
sort(v([1..l])).  Only X^v is computed directly: X_w is a translated
Schubert variety too, X_w = w_0 X^{pi(w_0 w)} (Brion, Lectures on the
geometry of flag varieties, 2005), so its divisors are those of
X^{pi(w_0 w)} translated by w_0, and its shadow is Delta(w_0, pi(w_0 w)).
An index tuple I, sorted in 1..n, is also the positive path whose
horizontal steps are at I (``ladder.Path``), so the divisor {p_I = 0} and
the facets on its path are read off the same tuple.  Translating by u
sends p_I to p_{u(I)}, the sorted image ``u.image(I)``; Plücker signs are
dropped since only vanishing matters.  A piece u X^v is cut out by the
divisors u(I), for I vanishing on X^v, and its shadow Delta(u, v) is the
intersection over them of the union of the facets on each divisor path.

A face refers to its polytope, so the polytope caches masks and keys, never
faces, and reference counting alone frees it.  Each polytope owns these
caches, which live as long as it does; ``__init__`` builds the first three
tables, all read off the pair-bit map:

* ``_pair_bits``, the pair-bit map: the two cells of an adjacent pair ->
  its bit in a tight mask;
* ``_facets``: effective edge -> tight mask of its facet, the pair bit of
  its two cells, and ``_facet_union``, the union of those bits, an int;
* ``_squares``: the masks of the 2x2 squares of a complete flag, ints,
  empty on a Grassmannian and None on other shapes;
* ``_keys``, the key table: tight mask -> saturated key, filled by
  ``_vertex_masks`` and by the first read of a face's ``key``;
* ``_vertices``: the vertex masks, sorted by values, filled by
  ``_vertex_masks``;
* ``_facet_bits``: effective edge -> vertex bitset of its facet, built once
  from the vertex masks;
* ``_divisors``, the divisor table: index tuple I -> the OR of the vertex
  bitsets of the facets on I's path, and the OR of their pair bits, one
  row per tuple, filled by ``divisor``;
* ``_pieces``, the piece table: (u, v) windows -> the piece u X^v as one
  row, the AND of the vertex bitsets of its divisors and the frozenset of
  their pair masks, filled by ``piece``, which builds a missing row
  through ``_piece_of``.

The other caches are the unbounded ``lru_cache``s ``coeffs._monk``,
``coeffs._row`` and ``weyl._inversions``.  They are pure functions of
permutation windows, shared by every polytope, so they stay process-wide.
After the Fl5 partition and its 74,199 oracle calls they held 447, 4,118
and 120 entries, and clearing the two ``coeffs`` caches freed 0.89 MiB.
``certify._all_perms`` holds S_n in search order once per n, from the
first search that reaches tier 1 or 3.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .ladder import (
    Cell,
    EdgeKey,
    LadderDiagram,
    Path,
    Pattern,
    path_of_partition,
    validate_lambda,
)
from .weyl import InputError, Permutation, UnsupportedShapeError

MAX_VERTICES = 200_000
"""The most vertices ``Polytope.vertices`` lists, and the most lattice
points ``Polytope.lattice_points`` lists.  Fl7 has 99,665 vertices, whose
masks and keys take about 30 MB under CPython 3.11; Fl8 has 3,000,736,
which would need about 0.9 GB.  On Fl6, lambda = (6,5,4,3,2,1) has 32,768
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
        return [e for e, m in self.poly._facets.items() if m & ~mask == 0]

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
        # Keyed by the two cells, left or lower first as diagram.edge_cells
        # gives them: (c, r) with (c, r+1) above it or (c+1, r) right of it.
        nodes = {tuple(sorted(cells)): (self._node(cells[0]), self._node(cells[1]))
                 for cells in diagram.adjacent_pairs()}
        self._pairs: list[tuple[int, int]] = sorted(nodes.values())
        # the pair-bit map: the two cells of a pair -> its bit in a tight mask
        bit = {pair: 1 << i for i, pair in enumerate(self._pairs)}
        self._pair_bits = {cells: bit[pair] for cells, pair in nodes.items()}
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
        # effective edge -> tight mask of its facet, the pair bit of its two
        # cells, and the union of those bits: distinct edges have distinct
        # pairs, so the sum is the OR
        self._facets = {e: self._pair_bits[diagram.edge_cells(e)]
                        for e in diagram.effective_edges}
        self._facet_union = sum(self._facets.values())
        # per 2x2 square of a complete flag, the tight bits of its four
        # pairs: the cells (j, r), (j, r+1), (j+1, r) and (j+1, r+1), the
        # last at most in the top row; empty on a Grassmannian, and None
        # where membership in the flag variety is not characterized
        self._squares: tuple[int, ...] | None = None
        if self.shape.is_grassmannian():
            self._squares = ()
        elif self.shape.is_complete():
            bits = self._pair_bits
            self._squares = tuple(
                bits[(j, r), (j, r + 1)] | bits[(j, r), (j + 1, r)]
                | bits[(j + 1, r), (j + 1, r + 1)] | bits[(j, r + 1), (j + 1, r + 1)]
                for j in range(1, self.n - 1)
                for r in range(1, self.n - j)
            )
        # effective edge -> vertex bitset of its facet
        self._facet_bits: dict[EdgeKey, int] = {}
        # index tuple -> (union, mask) of its divisor
        self._divisors: dict[Path, tuple[int, int]] = {}
        # (u, v) windows -> (bits, masks) of u X^v, filled by piece
        self._pieces: dict[tuple, tuple[int, frozenset[int]]] = {}

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

    def face_from_atoms(self, atoms) -> Face:
        """Build the face from (cellA, cellB) equality atoms; a forced cell
        is its value node."""
        return self._checked([(self._node(a), self._node(b)) for a, b in atoms])

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
        """Key of the face whose tight set is the saturated mask, read off
        the closure of its tight pairs: a box in the class of the value node
        of a_l is -l, any other box a block number given by first occurrence
        of its reach set."""
        if mask == -1:
            return None
        nb = len(self.boxes)
        reach = self._closure([pair for i, pair in enumerate(self._pairs) if mask >> i & 1])
        pins = {r: -l for l, r in enumerate(reach[nb:], start=1)}
        blocks: dict[int, int] = {}
        return tuple(pins.get(r) or blocks.setdefault(r, len(blocks) + 1) for r in reach[:nb])

    # -- saturation ------------------------------------------------------------

    def _closure(self, merges) -> list[int]:
        """The reach sets of the order graph with each node merge added as
        an edge both ways, closed transitively: bit j of entry i is set when
        node i reaches node j.  A class is a strongly connected component of
        the closed graph, and each node reaches itself, so two nodes share a
        class exactly when they reach the same nodes."""
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
        return reach

    def _saturate(self, merges) -> int:
        """Close an equality system given as node merges; the system is
        empty when two value nodes share a class.  Returns the tight mask,
        -1 when empty."""
        reach = self._closure(merges)
        if len(set(reach[len(self.boxes):])) != self.num_values:
            return -1
        return self._tight_pairs(reach)

    # -- vertices -----------------------------------------------------------------

    def vertices(self) -> list[Face]:
        """All 0-dimensional faces, sorted by values.  Raises
        UnsupportedShapeError when there are more than MAX_VERTICES."""
        return [Face(self, mask) for mask in self._vertex_masks()]

    def _vertex_masks(self) -> list[int]:
        """The tight masks of the vertices, sorted by values, found once in
        one walk of the pattern table; their keys enter the key table.
        Raises UnsupportedShapeError when there are more than
        MAX_VERTICES."""
        if self._vertices is None:
            n = self.n
            # the top row takes the value -l on block l, so that every
            # entry of a vertex pattern is its key value
            lam = tuple(-self.shape.block_of(c) for c in range(1, n + 1))
            table: dict[tuple[int, ...], tuple[int, list]] = {}
            count = _count_patterns(lam, table)
            if count > MAX_VERTICES:
                raise UnsupportedShapeError(
                    f"shape {self.shape} has {count} vertices; at most {MAX_VERTICES} are listed"
                )
            # the box (c, r) is entry c-1 of the row of length i = c+r-1,
            # whose pairs join it to entries c-1 and c of the row above
            bits = self._pair_bits
            in_row: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
            for c, r in self.boxes:
                in_row[c + r - 1].append(
                    (c - 1, bits[(c, r), (c, r + 1)], bits[(c, r), (c + 1, r)]))
            # each table edge, a row and a row below it, with its tight bits
            steps = {}
            for row, (_, below) in table.items():
                edges = steps[row] = []
                for b in below:
                    mask = 0
                    for j, up, right in in_row[len(b)]:
                        if b[j] == row[j]:
                            mask |= up
                        if b[j] == row[j + 1]:
                            mask |= right
                    edges.append((b, mask))
            # the rows are flattened from the top row down: the row of
            # length i starts at the sum of the longer lengths
            take = operator.itemgetter(*(
                (n * (n + 1) - (c + r - 1) * (c + r)) // 2 + c - 1 for c, r in self.boxes))
            keys: list = []
            masks: list[int] = []
            _walk_vertices([(lam, 0)], (), 0, steps, take, keys, masks)
            if len(self.boxes) == 1:  # one index makes itemgetter return the entry
                keys = [(k,) for k in keys]
            self._keys.update(zip(masks, keys))
            # a key is the negated values, so descending keys sort by values
            masks.sort(key=self._keys.__getitem__, reverse=True)
            self._vertices = masks
        return self._vertices

    def vertex_bitsets(self) -> tuple[int, dict[EdgeKey, int]]:
        """The bitset of all vertices and the table from effective edge to
        the vertex bitset of its facet, bit i standing for the i-th vertex
        of ``vertices()``.  The table is built once, after the vertex masks
        are found, so it raises UnsupportedShapeError above MAX_VERTICES."""
        if not self._facet_bits:
            self._vertex_masks()
            # a facet is one pair bit j, and a vertex lies on it when its
            # mask has bit j: that is digit p-1-j of the p-digit numeral of
            # the mask, and joining the numerals last vertex first puts the
            # i-th vertex at bit i of every column
            p = len(self._pairs)
            spec = f"0{p}b"
            digits = "".join([format(m, spec) for m in reversed(self._vertices)])
            for e, fm in self._facets.items():
                self._facet_bits[e] = int(digits[p - fm.bit_length()::p], 2)
        return (1 << len(self._vertices)) - 1, self._facet_bits

    def divisor(self, path: Path) -> tuple[int, int]:
        """The divisor {p_I = 0} of an index tuple I, built once: the vertex
        bitset of the union of the facets on I's path, and the OR of their
        pair bits, which a face's tight mask meets when it lies on one."""
        row = self._divisors.get(path)
        if row is None:
            table = self.vertex_bitsets()[1]
            union = mask = 0
            for e in self.diagram.effective_edges_on(path):
                union |= table[e]
                mask |= self._facets[e]
            row = self._divisors[path] = (union, mask)
        return row

    def piece(self, u: Permutation, v: Permutation) -> tuple[int, frozenset[int]]:
        """The row of the piece u X^v, built once by ``_piece_of`` and kept
        under the two windows.  A u or v of another rank than the
        polytope's is an InputError."""
        key = (u.window, v.window)
        row = self._pieces.get(key)
        if row is None:
            for x in (u, v):
                if x.n != self.n:
                    raise InputError(f"{x} is not a permutation of rank {self.n}")
            row = self._pieces[key] = self._piece_of(u, v)
        return row

    def _piece_of(self, u: Permutation, v: Permutation) -> tuple[int, frozenset[int]]:
        """The row of the piece u X^v, for a minimal coset representative v:
        the vertex bitset of Delta(u, v), the AND of the unions of its divisors
        u(I), and the set of their masks of facet pair bits.  At each cut level
        l, I and v({1..l}) have l steps each, and I vanishes when its path runs
        below that of v({1..l}) at some step."""
        bits = self.vertex_bitsets()[0]
        masks = set()
        for level in self.shape.cuts:
            ref = v.image(range(1, level + 1))
            for i in self.diagram.paths_at_level(level):
                if any(map(operator.gt, ref, i)):
                    union, mask = self.divisor(u.image(i))
                    bits &= union
                    masks.add(mask)
        return bits, frozenset(masks)

    def vertex_masks_in(self, bits: int) -> list[int]:
        """The tight masks of the vertices whose bits are set, sorted by
        values."""
        masks = self._vertex_masks()
        out = []
        while bits:
            low = bits & -bits
            out.append(masks[low.bit_length() - 1])
            bits ^= low
        return out

    # -- regularity and membership in the flag variety -----------------------------

    def is_regular(self, v: Face) -> bool:
        """Whether the face lies on as many facets as the polytope's
        dimension; a facet is one pair bit, so that counts the facet bits
        of its mask."""
        if not self.shape.is_complete():
            raise UnsupportedShapeError("regular vertices are defined for complete flags")
        return (v.mask & self._facet_union).bit_count() == self.n * (self.n - 1) // 2

    def in_VX(self, v: Face) -> bool:
        """Whether the coordinate point of the vertex lies on the flag
        variety: always for Grassmannians; the no-constant-2x2-square
        criterion for complete flags, a square being constant when its
        mask lies in the vertex's.  A face that is not a vertex is a
        ValueError on every shape."""
        key = v.key
        # free blocks are numbered from 1 by first occurrence
        if key is None or 1 in key:
            raise ValueError(f"{v} is not a vertex")
        if self._squares is None:
            raise UnsupportedShapeError(
                f"membership in the flag variety is not characterized for shape {self.shape}"
            )
        mask = v.mask
        return all(sq & mask != sq for sq in self._squares)

    # -- named faces (Grassmannian) ----------------------------------------------

    def _require_grassmannian(self):
        if not self.shape.is_grassmannian():
            raise UnsupportedShapeError(f"operation needs a Grassmannian shape, got {self.shape}")

    def named_face(self, mu: tuple[int, ...], dual: bool = False) -> Face:
        """F_mu, every box below the path of mu pinned to the bottom value
        b, or with ``dual`` its complementary face, every box above the
        path pinned to the top value a."""
        self._require_grassmannian()
        m, n = self.shape.cuts[0], self.n
        p = path_of_partition(tuple(mu), m, n)
        # the forced cells (m+1, 1) of b and (1, n-m+1) of a
        if dual:
            return self.face_from_atoms([((c, r), (1, n - m + 1)) for c in range(1, m + 1)
                                         for r in range(p[c - 1] - c + 1, n - m + 1)])
        return self.face_from_atoms([((c, r), (m + 1, 1)) for c in range(1, m + 1)
                                     for r in range(1, p[c - 1] - c + 1)])

    def delta_k_face(self, k: int) -> Face:
        """For Gr(2, n): the codimension-two face pinning level k to level
        k+1 in both columns, with the boundary conventions reading a and b."""
        self._require_grassmannian()
        if self.shape.cuts[0] != 2:
            raise UnsupportedShapeError("delta_k is defined for Gr(2, n)")
        if not 1 <= k <= self.n - 2:
            raise InputError(f"k must be within 1..{self.n - 2}: {k}")
        # at k = 1, box (2, 1) is pinned to b through the forced cell (3, 1)
        return self.face_from_atoms(
            [((1, k), (1, k + 1)), ((2, k - 1), (2, k)) if k > 1 else ((2, 1), (3, 1))])

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


def _walk_vertices(edges, flat, mask, steps, take, keys, masks) -> None:
    """Append the key and the tight mask of every vertex pattern that
    continues ``flat``, the rows so far from the top row down, with one of
    the rows ``edges`` lists with the tight bits of its table edge; ``mask``
    holds the tight bits of the table edges so far.  ``steps`` lists the
    rows below each row in the same way, and ``take`` reads a key off a
    flattened pattern."""
    for below, edge in edges:
        head = flat + below
        if len(below) > 2:
            _walk_vertices(steps[below], head, mask | edge, steps, take, keys, masks)
        else:  # the rows below a row of two are the last
            above = mask | edge
            for last, bits in steps[below]:
                keys.append(take(head + last))
                masks.append(above | bits)

