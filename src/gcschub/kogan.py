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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gc_polytope import Face, FaceUnion, Polytope
from .ladder import EdgeKey, LadderDiagram
from .weyl import InputError, Permutation, length, longest_element


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


def _check_edges(diagram: LadderDiagram, edges, dual: bool):
    if not diagram.shape.is_complete():
        raise ValueError("Kogan faces are defined for complete flag shapes")
    kind = "V" if dual else "H"
    for e in edges:
        if e[0] != kind:
            raise ValueError(f"{'dual ' if dual else ''}Kogan faces use {kind} edges: {e}")
        if not diagram.is_effective(e):
            raise ValueError(f"edge {e} is not effective")


def read_word(
    diagram: LadderDiagram, edges, dual: bool
) -> KoganFace:
    """Read the word of an edge set in the canonical order and record
    whether it is reduced."""
    edges = frozenset(edges)
    _check_edges(diagram, edges, dual)
    n = diagram.n
    if dual:
        # rows bottom to top, left to right within a row; V(x, r) -> s_x
        ordered = sorted(edges, key=lambda e: (e[2], e[1]))
        word = tuple(e[1] for e in ordered)
    else:
        # columns left to right, bottom to top within a column; H(c, y) -> s_{n-y}
        ordered = sorted(edges, key=lambda e: (e[1], e[2]))
        word = tuple(n - e[2] for e in ordered)
    perm = Permutation.from_word(word, n)
    return KoganFace(dual, edges, word, perm, length(perm) == len(word))


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
    """The reduced word of w_0 whose positions the grids above index."""
    if dual:
        return tuple(j for r in range(1, n) for j in range(1, n - r + 1))
    return tuple(n - o for c in range(1, n) for o in range(1, n - c + 1))


def face_from_positions(diagram: LadderDiagram, positions, dual: bool) -> KoganFace:
    """Kogan face from 1-based positions into the reference word of w_0."""
    grid = word_positions(diagram.n, dual)
    bad = [p for p in positions if not 1 <= p <= len(grid)]
    if bad:
        raise InputError(f"positions must be within 1..{len(grid)}: {bad}")
    if len(set(positions)) != len(positions):
        raise InputError(f"positions must be distinct: {list(positions)}")
    edges = [grid[p - 1] for p in positions]
    return read_word(diagram, edges, dual)


def enumerate_reduced(
    diagram: LadderDiagram, target: Permutation, dual: bool
) -> list[KoganFace]:
    """All reduced (dual) Kogan faces whose word multiplies to the target."""
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


def kogan_face_to_face(poly: Polytope, kface: KoganFace) -> Face:
    """The equality system of the Kogan face inside the polytope."""
    return poly.face_from_atoms(
        [poly.diagram.edge_cells(e) for e in kface.edges]
    )


def degeneration_union(
    poly: Polytope, target: Permutation, opposite: bool
) -> FaceUnion:
    """Union of the faces a Schubert variety degenerates to: the reduced
    dual Kogan faces with word equal to v for X^v (opposite=True), and the
    reduced Kogan faces with word w_0 u for X_u."""
    if opposite:
        faces = enumerate_reduced(poly.diagram, target, dual=True)
    else:
        w0 = longest_element(poly.n)
        faces = enumerate_reduced(poly.diagram, w0 * target, dual=False)
    return FaceUnion.of(poly, [kogan_face_to_face(poly, f) for f in faces])
