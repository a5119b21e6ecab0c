"""Plücker-index combinatorics of translated Schubert varieties and their
toric shadows: vanishing sets, and the shadow Delta(u, v) on vertex
bitsets.

A Schubert variety is cut out of the ambient product of projective spaces by
coordinate hyperplanes; at each cut level n_i the coordinate p_I vanishes on
X^v iff the path of I does not run above the path of sort(v([1..n_i])), and
on X_w iff it does not run below the path of sort(w([1..n_i])).  X_w is a
translated Schubert variety too, X_w = w_0 X^{pi(w_0 w)} (Brion, Lectures
on the geometry of flag varieties, 2005), so its shadow is
Delta(w_0, pi(w_0 w)) and ``delta_uv`` builds every piece of a certificate.
A vanishing set maps each cut level to the sorted index tuples I with
p_I = 0.  An index tuple is also the positive path whose horizontal steps
are at I (``ladder.Path``), so the divisor {p_I = 0} and the facets on its
path are read off the same tuple.
Translating by u sends p_I to p_{u.image(I)}, the sorted image of I; Plücker
signs are dropped since only vanishing matters.

The shadow of u X^v, the intersection over its divisors of the union of
the facets on each divisor path, is kept on vertex bitsets as a ``Piece``.
"""

from __future__ import annotations

from typing import NamedTuple

from .gc_polytope import Polytope
from .ladder import LadderDiagram, Path, path_leq, path_of_partition
from .weyl import Permutation

# cut level -> the index tuples I with p_I = 0 at that level
Vanishing = dict[int, frozenset[Path]]


def w_divisor(u: Permutation, level: int) -> Path:
    """The divisor path of u X^{s_level}, 1 <= level < n: horizontal steps
    u({1..level})."""
    if not 1 <= level < u.n:
        raise ValueError(f"level out of range: {level}")
    return u.image(range(1, level + 1))


def vanishing_schubert(
    diagram: LadderDiagram, v: Permutation, opposite: bool = True
) -> Vanishing:
    """Vanishing coordinates of X^v (opposite=True) or X_v on the diagram's
    flag variety, level by level."""
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
            alive = path_leq(ref, p) if opposite else path_leq(p, ref)
            if not alive:
                dead.add(p)
        data[level] = frozenset(dead)
    return data


class Piece(NamedTuple):
    """An intersection of divisor facet unions on vertex bitsets: the
    vertices in it, and per divisor path the vertex bitsets of the facets
    on that path."""

    vertices: int
    divisors: tuple[tuple[int, ...], ...]


def fold_paths(poly: Polytope, paths) -> Piece:
    """Intersection of the facet unions of the given divisor paths: the AND,
    over the paths, of the OR of the facet bitsets on each."""
    bits, table = poly.vertex_bitsets()
    divisors = tuple(tuple(table[e] for e in poly.diagram.effective_edges_on(p)) for p in paths)
    for facets in divisors:
        union = 0
        for f in facets:
            union |= f
        bits &= union
    return Piece(bits, divisors)


def delta_uv(poly: Polytope, u: Permutation, v: Permutation) -> Piece:
    """The set-theoretic intersection, over the divisors cutting out u X^v,
    of the unions of facets on each divisor path."""
    vanishing = vanishing_schubert(poly.diagram, v)
    paths = [
        idx
        for level in sorted(vanishing)
        for idx in sorted(u.image(i) for i in vanishing[level])
    ]
    return fold_paths(poly, paths)


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
