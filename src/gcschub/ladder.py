"""Ladder diagrams and their positive paths.

Grid conventions used throughout the package:

* columns c = 1..n run left to right, heights are counted from the bottom;
  the cell (c, r) holds the triangular-array entry with superscript
  i = c + r - 1 and subscript j = c, so a cell exists iff c + r - 1 <= n.
* the diagram's boxes are the cells with r <= n - lev(c) where lev(c) is the
  smallest cut >= c; every other cell is pinned to the constant of its
  column block.
* a positive path is the sorted tuple I = (i_1 < ... < i_l) of the
  positions of its horizontal steps, the index tuple of the Plücker
  coordinate p_I, and its level is l = len(I).  It takes n unit steps from
  the bottom-left corner; the s-th horizontal step covers the edge
  H(s, i_s - s) and a vertical step at time t covers V(x, t - x) with
  x = #{i in I : i < t}.  A path does not carry n, so the functions that
  walk it take n from the caller.

Horizontal edges H(c, y) join the cells (c, y) and (c, y+1); vertical edges
V(x, r) join (x, r) and (x+1, r).  An edge is effective when it is interior
to the diagram or is the single roof edge of its run that touches a lower
left block corner.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .weyl import InputError, ParabolicShape, grassmannian_perm

Cell = tuple[int, int]
EdgeKey = tuple[str, int, int]
Path = tuple[int, ...]


def path_leq(p: Path, q: Path) -> bool:
    """p <= q iff p has at least as many horizontal steps and runs below q."""
    return len(p) >= len(q) and all(a <= b for a, b in zip(p, q))


def path_edges(p: Path, n: int) -> list[EdgeKey]:
    """All unit edges traversed by the path on a rank-n diagram, in step
    order."""
    edges: list[EdgeKey] = []
    horizontal = set(p)
    x = 0
    for t in range(1, n + 1):
        if t in horizontal:
            x += 1
            edges.append(("H", x, t - x))
        else:
            edges.append(("V", x, t - x))
    return edges


def path_corners(p: Path, n: int) -> list[tuple[EdgeKey, EdgeKey]]:
    """Pairs of consecutive edges of different direction."""
    edges = path_edges(p, n)
    return [(a, b) for a, b in zip(edges, edges[1:]) if a[0] != b[0]]


def path_of_partition(mu: tuple[int, ...], m: int, n: int) -> Path:
    return grassmannian_perm(mu, m, n).image(range(1, m + 1))


class LadderDiagram:
    """Boxes and effective edges of the diagram for a shape."""

    def __init__(self, shape: ParabolicShape):
        self.shape = shape
        self.n = shape.n
        self.column_height = {c: self.n - shape.level_of(c) for c in range(1, self.n + 1)}
        self.boxes: tuple[Cell, ...] = tuple(
            (c, r)
            for c in range(1, self.n + 1)
            for r in range(1, self.column_height[c] + 1)
        )
        self._box_set = frozenset(self.boxes)
        self._effective = self._compute_effective_edges()
        self._effective_set = frozenset(self._effective)

    # -- cells -------------------------------------------------------------

    def cell_exists(self, cell: Cell) -> bool:
        c, r = cell
        return 1 <= c <= self.n and 1 <= r <= self.n + 1 - c

    def is_box(self, cell: Cell) -> bool:
        return cell in self._box_set

    def forced_value(self, cell: Cell) -> int:
        """Block index whose constant the non-box cell is pinned to."""
        if self.is_box(cell) or not self.cell_exists(cell):
            raise ValueError(f"cell {cell} is not a forced cell")
        return self.shape.block_of(cell[0])

    def adjacent_pairs(self) -> list[tuple[Cell, Cell]]:
        """(lo, hi) pairs: the lo cell's value is <= the hi cell's value."""
        pairs = []
        for c, r in self.boxes:
            if self.cell_exists((c, r + 1)):
                pairs.append(((c, r), (c, r + 1)))
            if self.cell_exists((c + 1, r)):
                pairs.append(((c + 1, r), (c, r)))
        return pairs

    # -- effective edges ----------------------------------------------------

    def _compute_effective_edges(self) -> tuple[EdgeKey, ...]:
        edges: list[EdgeKey] = []
        b = self.shape.bounds
        for c in range(1, self.n + 1):
            h = self.column_height[c]
            for y in range(1, h):
                edges.append(("H", c, y))
            # roof H edge: only at the first column of a block
            l = self.shape.block_of(c)
            if h > 0 and c == b[l - 1] + 1:
                edges.append(("H", c, h))
        for x in range(1, self.n):
            hx1 = self.column_height.get(x + 1, 0)
            for r in range(1, min(self.column_height[x], hx1) + 1):
                edges.append(("V", x, r))
            # roof V edge: x a cut, one step above the forced block corner
            if x in self.shape.cuts:
                l = self.shape.cuts.index(x) + 1
                r = self.n - b[l + 1] + 1
                if r <= self.column_height[x]:
                    edges.append(("V", x, r))
        return tuple(sorted(edges))

    @property
    def effective_edges(self) -> tuple[EdgeKey, ...]:
        return self._effective

    def is_effective(self, edge: EdgeKey) -> bool:
        return edge in self._effective_set

    def edge_cells(self, edge: EdgeKey) -> tuple[Cell, Cell]:
        """The two cells whose equality the edge presents (box first)."""
        kind, a, bb = edge
        if kind == "H":
            return ((a, bb), (a, bb + 1))
        return ((a, bb), (a + 1, bb))

    def effective_edges_on(self, p: Path) -> list[EdgeKey]:
        return [e for e in path_edges(p, self.n) if e in self._effective_set]

    # -- paths ---------------------------------------------------------------

    def paths_at_level(self, level: int) -> list[Path]:
        if level not in self.shape.cuts and level != self.n:
            raise ValueError(f"level {level} is not a cut of {self.shape}")
        return list(itertools.combinations(range(1, self.n + 1), level))

    def all_paths(self) -> list[Path]:
        out = []
        for level in self.shape.cuts:
            out.extend(self.paths_at_level(level))
        return out

    # -- roof and special paths ----------------------------------------------

    def roof_edges(self) -> list[EdgeKey]:
        """All edges on the roof, traversed from L_1 to L_{k+1}."""
        b = self.shape.bounds
        edges: list[EdgeKey] = []
        for l in range(1, len(b) - 1):
            y = self.n - b[l]
            edges.extend(("H", c, y) for c in range(b[l - 1] + 1, b[l] + 1))
            x = b[l]
            edges.extend(("V", x, r) for r in range(self.n - b[l], self.n - b[l + 1], -1))
        return edges

    def special_path(self, edge: EdgeKey) -> Path:
        """The unique positive path with fewest corners among those having a
        corner containing the given roof edge."""
        best: Path | None = None
        best_corners = None
        ties = 0
        for p in self.all_paths():
            corners = path_corners(p, self.n)
            if not any(edge in corner for corner in corners):
                continue
            if best_corners is None or len(corners) < best_corners:
                best, best_corners, ties = p, len(corners), 1
            elif len(corners) == best_corners:
                ties += 1
        if best is None or ties != 1:
            raise ValueError(f"special path for {edge} is not unique ({ties} candidates)")
        return best

    def special_paths(self) -> list[Path]:
        """One special path per roof edge, in roof order."""
        return [self.special_path(e) for e in self.roof_edges()]


# -- the pattern -> weight map and lattice-point decomposition ---------------

Pattern = tuple[tuple[int, ...], ...]


def psi(pattern: Pattern) -> Pattern:
    """The weight of a pattern: b_{ij} = entry(i, j) - entry(i-1, j),
    reading 0 below the diagonal."""
    n = len(pattern)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, i + 1):
            below = pattern[i - 2][j - 1] if i - 1 >= j else 0
            row.append(pattern[i - 1][j - 1] - below)
        rows.append(tuple(row))
    return tuple(rows)


def validate_lambda(shape: ParabolicShape, lam: tuple[int, ...]) -> None:
    """lam must be weakly decreasing, constant on blocks and strictly
    decreasing across cuts.  A passing (shape, lam) is remembered; a
    failing one raises InputError on every call."""
    _check_lambda(shape, tuple(lam))


@lru_cache(maxsize=256)
def _check_lambda(shape: ParabolicShape, lam: tuple[int, ...]) -> None:
    if len(lam) != shape.n:
        raise InputError(f"lambda needs {shape.n} entries: {lam}")
    b = shape.bounds
    for l in range(1, len(b)):
        block = lam[b[l - 1]: b[l]]
        if any(v != block[0] for v in block):
            raise InputError(f"lambda must be constant on block {l}: {lam}")
    for cut in shape.cuts:
        if lam[cut - 1] <= lam[cut]:
            raise InputError(f"lambda must drop strictly at cut {cut}: {lam}")


def is_gc_pattern(pattern: Pattern) -> bool:
    n = len(pattern)
    for i in range(1, n):
        for j in range(1, i + 1):
            if not pattern[i][j - 1] >= pattern[i - 1][j - 1] >= pattern[i][j]:
                return False
    return True


def decompose_weight(
    diagram: LadderDiagram, lam: tuple[int, ...], pattern: Pattern
) -> list[Path]:
    """Write psi(pattern) as a sum of path vectors beta_I with exactly
    lam_j - lam_{j+1} paths of level j, by repeatedly stripping the lowest
    path: the bottommost nonzero b-box of every column with mass left.

    Interlacing guarantees each strip is a valid strictly increasing path and
    leaves a valid pattern, so the greedy loop cannot dead-end.
    """
    validate_lambda(diagram.shape, lam)
    if lam[-1] < 0:  # lam_n paths of level n
        raise InputError(f"lambda needs nonnegative entries: {lam}")
    n = diagram.n
    if tuple(pattern[n - 1]) != tuple(lam):
        raise ValueError(f"top row {pattern[n - 1]} != lambda {lam}")
    if not is_gc_pattern(pattern):
        raise ValueError("not a Gelfand-Cetlin pattern")
    if any(not isinstance(v, int) for row in pattern for v in row):
        raise ValueError("pattern must be integral")
    weight = psi(pattern)
    b = [list(row) for row in weight]
    # the mass left in each column, and how often each entry was stripped
    left = [sum(b[i - 1][j - 1] for i in range(j, n + 1)) for j in range(1, n + 1)]
    stripped = [[0] * i for i in range(1, n + 1)]

    paths: list[Path] = []
    while True:
        steps = []
        for j in range(1, n + 1):
            if left[j - 1] == 0:
                break
            i = next(i for i in range(j, n + 1) if b[i - 1][j - 1] > 0)
            steps.append(i)
        if not steps:
            break
        for s, i_s in enumerate(steps, start=1):
            b[i_s - 1][s - 1] -= 1
            left[s - 1] -= 1
            stripped[i_s - 1][s - 1] += 1
        paths.append(tuple(steps))

    # re-summation check and level multiplicities, both read off the table
    # of stripped entries: the paths re-sum to the weight when the table is
    # the weight, and as a path of level j runs through columns 1..j, the
    # level-j paths are the strips of column j less those of column j+1
    if tuple(map(tuple, stripped)) != weight:
        raise AssertionError("decomposition does not re-sum to the weight")
    strips = [sum(stripped[i - 1][j - 1] for i in range(j, n + 1)) for j in range(1, n + 1)]
    strips.append(0)
    lam_ext = tuple(lam) + (0,)
    for j in range(1, n + 1):
        want = lam_ext[j - 1] - lam_ext[j]
        got = strips[j - 1] - strips[j]
        if want != got:
            raise AssertionError(f"level {j}: expected {want} paths, got {got}")
    return paths
