"""Helpers that check claims of the paper, kept next to the tests.

No command, certificate or benchmark of the package needs these; the tests
use them to check statements of the paper against the package:

* the Pieri rule sigma^{(1,1)} . sigma^mu on Gr(2, n);
* the toric divisor and toric subvariety equations, whose index sets agree
  with the Schubert vanishing sets, which is how the degeneration preserves
  index sets;
* the distributive lattice of positive paths (``meet`` and ``join``) and
  the partition of a Grassmannian path and its complement;
* the exponent vectors beta_I, their sums and the map ``phi``, the inverse
  of ``ladder.psi``, for the lattice-point and weight bijection;
* the value of a cell at a vertex, the numeric pattern of a vertex and its
  coordinate point.
"""

from __future__ import annotations

from gcschub.gc_polytope import Face, Polytope
from gcschub.ladder import (
    Cell,
    LadderDiagram,
    Path,
    Pattern,
    path_leq,
    path_of_partition,
    validate_lambda,
)
from gcschub.pluecker import Vanishing


# -- the Pieri rule ------------------------------------------------------------


def pieri_gr2(mu: tuple[int, int], n: int) -> tuple[int, int] | None:
    """sigma^{(1,1)} . sigma^mu in Gr(2, n): the shifted partition, or None
    when mu_1 = n - 2 kills the product."""
    mu = tuple(mu)
    if len(mu) != 2 or mu[0] < mu[1] or mu[1] < 0:
        raise ValueError(f"need a partition with two parts: {mu}")
    if mu[0] > n - 2:
        raise ValueError(f"partition {mu} does not fit in 2x{n - 2}")
    if mu[0] < n - 2:
        return (mu[0] + 1, mu[1] + 1)
    return None


# -- toric equations -----------------------------------------------------------


def toric_divisor_equations(diagram: LadderDiagram, edge) -> Vanishing:
    """Coordinates vanishing on the toric divisor of an effective edge: all
    p_I whose path contains the edge."""
    if not diagram.is_effective(edge):
        raise ValueError(f"edge {edge} is not effective")
    data = {}
    for level in diagram.shape.cuts:
        data[level] = frozenset(
            p
            for p in diagram.paths_at_level(level)
            if edge in diagram.effective_edges_on(p)
        )
    return data


def toric_subvariety_equations(
    diagram: LadderDiagram, mu: tuple[int, ...], dual: bool = False
) -> Vanishing:
    """Grassmannian toric subvariety equations: p_I = 0 for paths not above
    (dual: not below) the path of mu.  These agree with the Schubert
    vanishing sets, which is how the degeneration preserves index sets."""
    shape = diagram.shape
    if not shape.is_grassmannian():
        raise ValueError(f"Grassmannian shape required, got {shape}")
    m = shape.cuts[0]
    ref = path_of_partition(tuple(mu), m, shape.n)
    dead = set()
    for p in diagram.paths_at_level(m):
        alive = path_leq(p, ref) if dual else path_leq(ref, p)
        if not alive:
            dead.add(p)
    return {m: frozenset(dead)}


# -- the path lattice and the partitions of a path -----------------------------


def meet(p: Path, q: Path) -> Path:
    if len(p) < len(q):
        p, q = q, p
    return tuple(map(min, p, q)) + p[len(q):]


def join(p: Path, q: Path) -> Path:
    return tuple(map(max, p, q))


def partition_of_path(p: Path) -> tuple[int, ...]:
    """mu = (i_m - m, ..., i_1 - 1) for a level-m path."""
    return tuple(p[s - 1] - s for s in range(len(p), 0, -1))


def complement(mu: tuple[int, ...], m: int, n: int) -> tuple[int, ...]:
    """mu^vee = (n-m-mu_m, ..., n-m-mu_1); an involution on the m x (n-m) box."""
    if len(mu) != m or any(v > n - m or v < 0 for v in mu):
        raise ValueError(f"partition {mu} does not fit in {m}x{n - m}")
    return tuple(n - m - mu[m - 1 - r] for r in range(m))


# -- exponent vectors and phi --------------------------------------------------


def exponent_vector(p: Path, n: int) -> Pattern:
    """beta_I on a rank-n diagram: 1 on the entries (i_s, s), i.e. on the
    boxes right above the path, and 0 elsewhere."""
    rows = [[0] * i for i in range(1, n + 1)]
    for s, i_s in enumerate(p, start=1):
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


# -- the pattern and the coordinate point of a vertex --------------------------


def value_of(face: Face, cell: Cell) -> int:
    """Block-value index of any cell the face fixes, box or forced."""
    poly = face.poly
    i = poly.box_index.get(cell)
    if i is None:
        return poly.diagram.forced_value(cell)
    key = face.key
    if key is None or key[i] > 0:
        raise ValueError(f"{face} does not fix box {cell}")
    return -key[i]


def pattern(face: Face, lam: tuple[int, ...]) -> Pattern:
    """Numeric Gelfand-Cetlin pattern at the vertex ``face``."""
    validate_lambda(face.poly.shape, lam)
    block_val = [lam[c - 1] for c in face.poly.shape.bounds[1:]]
    return tuple(
        tuple(block_val[value_of(face, (j, i - j + 1)) - 1] for j in range(1, i + 1))
        for i in range(1, face.poly.n + 1)
    )


def coordinate_point(poly: Polytope, v: Face) -> dict[int, tuple[int, ...]]:
    """Per level, the unique nonvanishing coordinate index: the path
    separating values > a_{i+1} from values <= a_{i+1}."""
    out = {}
    for i, level in enumerate(poly.shape.cuts, start=1):
        steps = []
        for c in range(1, level + 1):
            low = sum(
                1
                for r in range(1, poly.n + 2 - c)
                if value_of(v, (c, r)) >= i + 1
            )
            steps.append(c + low)
        out[level] = tuple(steps)
    return out
