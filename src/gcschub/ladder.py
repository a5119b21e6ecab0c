"""Ladder diagrams and their positive-path lattice.

Grid conventions used throughout the package:

* columns c = 1..n run left to right, heights are counted from the bottom;
  the cell (c, r) holds the triangular-array entry with superscript
  i = c + r - 1 and subscript j = c, so a cell exists iff c + r - 1 <= n.
* the diagram's boxes are the cells with r <= n - lev(c) where lev(c) is the
  smallest cut >= c; every other cell is pinned to the constant of its
  column block.
* a positive path with horizontal steps at positions I = (i_1 < ... < i_l)
  takes n unit steps from the bottom-left corner; the s-th horizontal step
  covers the edge H(s, i_s - s) and a vertical step at time t covers
  V(x, t - x) with x = #{i in I : i < t}.

Horizontal edges H(c, y) join the cells (c, y) and (c, y+1); vertical edges
V(x, r) join (x, r) and (x+1, r).  An edge is effective when it is interior
to the diagram or is the single roof edge of its run that touches a lower
left block corner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .weyl import InputError, ParabolicShape, Permutation

Cell = tuple[int, int]
EdgeKey = tuple[str, int, int]


@dataclass(frozen=True, order=True)
class PositivePath:
    """Monotone path identified by its horizontal-step positions."""

    steps: tuple[int, ...]
    n: int

    def __post_init__(self):
        s = self.steps
        if not s or any(a >= b for a, b in zip(s, s[1:])) or s[0] < 1 or s[-1] > self.n:
            raise ValueError(f"steps must be strictly increasing within 1..{self.n}: {s}")

    @property
    def level(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return ",".join(map(str, self.steps))


def path_leq(p: PositivePath, q: PositivePath) -> bool:
    """p <= q iff p has at least as many horizontal steps and runs below q."""
    if p.n != q.n:
        raise ValueError("paths live on different diagrams")
    if p.level < q.level:
        return False
    return all(p.steps[r] <= q.steps[r] for r in range(q.level))


def incomparable(p: PositivePath, q: PositivePath) -> bool:
    return not path_leq(p, q) and not path_leq(q, p)


def meet(p: PositivePath, q: PositivePath) -> PositivePath:
    if p.level < q.level:
        p, q = q, p
    m = q.level
    out = tuple(min(p.steps[r], q.steps[r]) for r in range(m)) + p.steps[m:]
    return PositivePath(out, p.n)


def join(p: PositivePath, q: PositivePath) -> PositivePath:
    if p.level < q.level:
        p, q = q, p
    return PositivePath(tuple(max(p.steps[r], q.steps[r]) for r in range(q.level)), p.n)


def translate_path(u: Permutation, p: PositivePath) -> PositivePath:
    """Path whose horizontal steps are the set u(I); signs are dropped since
    only vanishing loci matter downstream."""
    if u.n != p.n:
        raise ValueError(f"rank mismatch: {u.n} vs {p.n}")
    return PositivePath(tuple(sorted(u(i) for i in p.steps)), p.n)


def path_edges(p: PositivePath) -> list[EdgeKey]:
    """All unit edges traversed by the path, in step order."""
    edges: list[EdgeKey] = []
    horizontal = set(p.steps)
    x = 0
    for t in range(1, p.n + 1):
        if t in horizontal:
            x += 1
            edges.append(("H", x, t - x))
        else:
            edges.append(("V", x, t - x))
    return edges


def path_corners(p: PositivePath) -> list[tuple[EdgeKey, EdgeKey]]:
    """Pairs of consecutive edges of different direction."""
    edges = path_edges(p)
    return [(a, b) for a, b in zip(edges, edges[1:]) if a[0] != b[0]]


def partition_of_path(p: PositivePath, m: int | None = None) -> tuple[int, ...]:
    """mu = (i_m - m, ..., i_1 - 1) for a level-m path."""
    m = p.level if m is None else m
    if p.level != m:
        raise ValueError(f"path has level {p.level}, expected {m}")
    return tuple(p.steps[m - r] - (m - r + 1) for r in range(1, m + 1))


def path_of_partition(mu: tuple[int, ...], m: int, n: int) -> PositivePath:
    if len(mu) != m:
        raise InputError(f"partition must have {m} parts: {mu}")
    if any(a < b for a, b in zip(mu, mu[1:])) or mu[-1] < 0 or mu[0] > n - m:
        raise InputError(f"{mu} is not a partition in the {m}x{n - m} box")
    return PositivePath(tuple(mu[m - s] + s for s in range(1, m + 1)), n)


def complement(mu: tuple[int, ...], m: int, n: int) -> tuple[int, ...]:
    """mu^vee = (n-m-mu_m, ..., n-m-mu_1); an involution on the m x (n-m) box."""
    if len(mu) != m or any(v > n - m or v < 0 for v in mu):
        raise ValueError(f"partition {mu} does not fit in {m}x{n - m}")
    return tuple(n - m - mu[m - 1 - r] for r in range(m))


class LadderDiagram:
    """Boxes, effective edges and anchors of the diagram for a shape."""

    def __init__(self, shape: ParabolicShape):
        self.shape = shape
        self.n = shape.n
        b = shape.bounds
        self.column_height = {c: self.n - shape.level_of(c) for c in range(1, self.n + 1)}
        self.boxes: tuple[Cell, ...] = tuple(
            (c, r)
            for c in range(1, self.n + 1)
            for r in range(1, self.column_height[c] + 1)
        )
        self._box_set = frozenset(self.boxes)
        # anchors: O_l lower right of the l-th diagonal square, L_l lower left
        self.O = {l: (b[l], self.n - b[l]) for l in range(len(b))}
        self.L = {l: (b[l - 1], self.n - b[l]) for l in range(1, len(b))}
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

    def effective_edges_on(self, p: PositivePath) -> list[EdgeKey]:
        return [e for e in path_edges(p) if e in self._effective_set]

    # -- paths ---------------------------------------------------------------

    def paths_at_level(self, level: int) -> list[PositivePath]:
        if level not in self.shape.cuts and level != self.n:
            raise ValueError(f"level {level} is not a cut of {self.shape}")
        return [
            PositivePath(steps, self.n)
            for steps in itertools.combinations(range(1, self.n + 1), level)
        ]

    def all_paths(self) -> list[PositivePath]:
        out = []
        for level in self.shape.cuts:
            out.extend(self.paths_at_level(level))
        return out

    def bottom_path(self) -> PositivePath:
        return PositivePath(tuple(range(1, self.n + 1)), self.n)

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

    def special_path(self, edge: EdgeKey) -> PositivePath:
        """The unique positive path with fewest corners among those having a
        corner containing the given roof edge."""
        best: PositivePath | None = None
        best_corners = None
        ties = 0
        for p in self.all_paths():
            corners = path_corners(p)
            if not any(edge in corner for corner in corners):
                continue
            if best_corners is None or len(corners) < best_corners:
                best, best_corners, ties = p, len(corners), 1
            elif len(corners) == best_corners:
                ties += 1
        if best is None or ties != 1:
            raise ValueError(f"special path for {edge} is not unique ({ties} candidates)")
        return best

    def special_paths(self) -> list[PositivePath]:
        """One special path per roof edge, in roof order."""
        return [self.special_path(e) for e in self.roof_edges()]


# -- exponent vectors and the pattern <-> weight maps -------------------------

Pattern = tuple[tuple[int, ...], ...]


def zero_pattern(n: int) -> Pattern:
    return tuple(tuple(0 for _ in range(i)) for i in range(1, n + 1))


def exponent_vector(p: PositivePath) -> Pattern:
    """beta_I: 1 on the entries (i_s, s), i.e. on the boxes right above the
    path, and 0 elsewhere."""
    rows = [[0] * i for i in range(1, p.n + 1)]
    for s, i_s in enumerate(p.steps, start=1):
        rows[i_s - 1][s - 1] = 1
    return tuple(tuple(r) for r in rows)


def add_patterns(a: Pattern, b: Pattern, scale: int = 1) -> Pattern:
    return tuple(tuple(x + scale * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def phi(b_pattern: Pattern) -> Pattern:
    """Column partial sums: entry (i, j) becomes b_{ij} + b_{i-1,j} + ... + b_{jj}."""
    n = len(b_pattern)
    rows = []
    for i in range(1, n + 1):
        rows.append(tuple(
            sum(b_pattern[ii - 1][j - 1] for ii in range(j, i + 1))
            for j in range(1, i + 1)
        ))
    return tuple(rows)


def psi(pattern: Pattern) -> Pattern:
    """Inverse of phi: b_{ij} = entry(i, j) - entry(i-1, j), reading 0 below
    the diagonal."""
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
    decreasing across cuts."""
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
) -> list[PositivePath]:
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
    b = [list(row) for row in psi(pattern)]

    def column_total(j: int) -> int:
        return sum(b[i - 1][j - 1] for i in range(j, n + 1))

    paths: list[PositivePath] = []
    while True:
        steps = []
        for j in range(1, n + 1):
            if column_total(j) == 0:
                break
            i = next(i for i in range(j, n + 1) if b[i - 1][j - 1] > 0)
            steps.append(i)
        if not steps:
            break
        p = PositivePath(tuple(steps), n)
        for s, i_s in enumerate(p.steps, start=1):
            b[i_s - 1][s - 1] -= 1
        paths.append(p)

    # re-summation check and level multiplicities
    total = zero_pattern(n)
    for p in paths:
        total = add_patterns(total, exponent_vector(p))
    if total != psi(pattern):
        raise AssertionError("decomposition does not re-sum to the weight")
    lam_ext = tuple(lam) + (0,)
    for j in range(1, n + 1):
        want = lam_ext[j - 1] - lam_ext[j]
        got = sum(1 for p in paths if p.level == j)
        if want != got:
            raise AssertionError(f"level {j}: expected {want} paths, got {got}")
    return paths
