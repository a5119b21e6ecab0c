"""Plücker-index combinatorics of translated Schubert varieties: the
divisors that cut out u X^v, and the piece they make.

A Schubert variety is cut out of the ambient product of projective spaces by
coordinate hyperplanes; at each cut level l the coordinate p_I vanishes on
X^v iff the path of I does not run above the path of sort(v([1..l])).
Only X^v is computed directly: X_w is a translated Schubert variety too,
X_w = w_0 X^{pi(w_0 w)} (Brion, Lectures on the geometry of flag varieties,
2005), so its divisors are those of X^{pi(w_0 w)} translated by w_0, its
shadow is Delta(w_0, pi(w_0 w)), and ``delta_uv`` builds every piece of a
certificate.
An index tuple I, sorted in 1..n, is also the positive path whose
horizontal steps are at I (``ladder.Path``), so the divisor {p_I = 0} and
the facets on its path are read off the same tuple.  Translating by u sends
p_I to p_{u.image(I)}, the sorted image of I; Plücker signs are dropped
since only vanishing matters.

A piece u X^v is cut out by the divisors u(I), for I vanishing on X^v.  Its
shadow Delta(u, v) is the intersection over them of the union of the
facets on each divisor path; the polytope's divisor table holds each union
on vertex bitsets (``Polytope.divisor``), and ``delta_uv`` ANDs them into
the piece's row, which ``Polytope.piece`` keeps under the two windows.
"""

from __future__ import annotations

from operator import gt
from typing import TYPE_CHECKING

from .weyl import Permutation

if TYPE_CHECKING:
    # gc_polytope imports this module to build its pieces
    from .gc_polytope import Polytope


def delta_uv(poly: Polytope, u: Permutation, v: Permutation) -> tuple[int, frozenset[int]]:
    """The row of the piece u X^v, for a minimal coset representative v:
    the vertex bitset of Delta(u, v), the AND of the unions of its divisors
    u(I), and the set of their masks of facet pair bits.  At each cut level
    l, I and v({1..l}) have l steps each, and I vanishes when its path runs
    below that of v({1..l}) at some step."""
    bits = poly.vertex_bitsets()[0]
    masks = set()
    for level in poly.shape.cuts:
        ref = v.image(range(1, level + 1))
        for i in poly.diagram.paths_at_level(level):
            if any(map(gt, ref, i)):
                union, mask = poly.divisor(u.image(i))
                bits &= union
                masks.add(mask)
    return bits, frozenset(masks)
