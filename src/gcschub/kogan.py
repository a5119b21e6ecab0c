"""Kogan and dual Kogan faces of the complete-flag polytope.

A Kogan face is a set of horizontal effective edges (equalities down a
column); a dual Kogan face a set of vertical effective edges (equalities
along a diagonal).  Edges carry simple reflections:

* horizontal edge H(c, y) carries s_{n-y};
* vertical edge V(x, r) carries s_x.

The word of a Kogan face reads its edges bottom to top inside each column,
columns left to right; a dual face reads left to right inside each row,
rows bottom to top.  Both conventions are pinned by reference subword
vectors in the tests.  The matching position grids inside the two standard
reduced words of the longest element are:

* dual word [s_1..s_{n-1}][s_1..s_{n-2}]...[s_1]: run r, offset j -> V(j, r);
* Kogan word [s_{n-1}..s_1][s_{n-1}..s_2]...[s_{n-1}]: run c, offset o -> H(c, o).

The word of an edge set is thus the subword of the reference word at its
positions, and the reduced faces of a target are its reduced subwords
(Knutson-Miller).  A face is built from its positions: its edges and its
word are those of the positions in increasing order, which is the reading
order.  ``enumerate_reduced`` finds the positions by a walk that takes a
letter only when the product stays a reduced prefix of the target, so it
builds no face it does not return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ladder import EdgeKey, LadderDiagram
from .weyl import InputError, Permutation, length


@dataclass(frozen=True)
class KoganFace:
    """A (dual) Kogan face with its reading word and permutation."""

    dual: bool
    edges: frozenset[EdgeKey]
    word: tuple[int, ...]
    perm: Permutation
    reduced: bool

    def to_json(self) -> dict:
        return {
            "dual": self.dual,
            "edges": sorted(f"{k}({a},{b})" for k, a, b in self.edges),
            "word": list(self.word),
            "reduced": self.reduced,
            "perm": list(self.perm.window),
        }


def _check_complete(diagram: LadderDiagram):
    if not diagram.shape.is_complete():
        raise ValueError("Kogan faces are defined for complete flag shapes")


def _letter(edge: EdgeKey, n: int) -> int:
    """The simple reflection an edge carries: V(x, r) -> s_x and
    H(c, y) -> s_{n-y}."""
    kind, a, b = edge
    return a if kind == "V" else n - b


def _face(n: int, dual: bool, taken) -> KoganFace:
    """The face at the sorted 0-based positions ``taken`` of the reference
    word, with its word and whether that word is reduced."""
    grid = word_positions(n, dual)
    edges = [grid[p] for p in taken]
    word = tuple(_letter(e, n) for e in edges)
    perm = Permutation.from_word(word, n)
    return KoganFace(dual, frozenset(edges), word, perm, length(perm) == len(word))


def word_positions(n: int, dual: bool) -> list[EdgeKey]:
    """Edge of every position of the reference reduced word of w_0."""
    out = []
    if dual:
        for r in range(1, n):
            for j in range(1, n - r + 1):
                out.append(("V", j, r))
    else:
        for c in range(1, n):
            for o in range(1, n - c + 1):
                out.append(("H", c, o))
    return out


def reference_word(n: int, dual: bool) -> tuple[int, ...]:
    """The reduced word of w_0 whose positions the grids above index: the
    letters of the edges of ``word_positions``."""
    return tuple(_letter(e, n) for e in word_positions(n, dual))


def face_from_positions(diagram: LadderDiagram, positions, dual: bool) -> KoganFace:
    """Kogan face from 1-based positions into the reference word of w_0."""
    grid = word_positions(diagram.n, dual)
    bad = [p for p in positions if not 1 <= p <= len(grid)]
    if bad:
        raise InputError(f"positions must be within 1..{len(grid)}: {bad}")
    if len(set(positions)) != len(positions):
        raise InputError(f"positions must be distinct: {list(positions)}")
    _check_complete(diagram)
    return _face(diagram.n, dual, sorted(p - 1 for p in positions))


def enumerate_reduced(
    diagram: LadderDiagram, target: Permutation, dual: bool
) -> list[KoganFace]:
    """All reduced (dual) Kogan faces whose word multiplies to the target,
    in the order of their edge sets as combinations of the effective edges.
    The walk over the positions of the reference word keeps the product p
    of the letters taken, and takes the letter s only when p*s is one
    longer than p and still a prefix of the target in the weak order."""
    if target.n != diagram.n:
        raise InputError("rank mismatch")
    _check_complete(diagram)
    word = reference_word(diagram.n, dual)
    out = [
        _face(diagram.n, dual, taken)
        for taken in _reduced_positions(word, target, 0, Permutation.identity(diagram.n), [])
    ]
    pool = {e: i for i, e in enumerate(diagram.effective_edges)}
    out.sort(key=lambda face: sorted(pool[e] for e in face.edges))
    return out


def _reduced_positions(word, target: Permutation, start: int, prefix: Permutation,
                       taken: list[int]):
    """Every completion of the positions ``taken``, whose letters multiply
    to ``prefix``, by positions of ``word`` from ``start`` on to a reduced
    word of the target."""
    size = length(target)
    if len(taken) == size:
        yield tuple(taken)
        return
    # stop when too few positions remain for the letters still needed
    for p in range(start, len(word) - size + len(taken) + 1):
        step = prefix.right_mul_s(word[p])
        grown = length(step)
        if grown == len(taken) + 1 and length(step.inverse() * target) == size - grown:
            taken.append(p)
            yield from _reduced_positions(word, target, p + 1, step, taken)
            taken.pop()
