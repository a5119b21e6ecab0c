"""Slow references for faces of Gelfand-Cetlin polytopes.

The package reads the dimension of a face off its saturated key and finds
the reduced Kogan faces by a walk over the reduced prefixes of the target.
This module keeps what those replaced, so that tests can compare the two:
the affine rank of a face's vertex set, and the reduced faces found by
reading the word of every edge subset of the right size.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gcschub.gc_polytope import Face, Polytope
from gcschub.kogan import KoganFace, read_word
from gcschub.ladder import LadderDiagram
from gcschub.weyl import Permutation, length


def face_dimension_by_rank(poly: Polytope, face: Face) -> int:
    """Affine rank of the face's vertex set; the exact reference for the
    saturation fast path."""
    verts = poly.vertices_of_face(face)
    if not verts:
        return -1
    base = verts[0].values
    rows = [
        [Fraction(v - b) for v, b in zip(vert.values, base)]
        for vert in verts[1:]
    ]
    return _rank(rows)


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


def reduced_faces_by_subsets(
    diagram: LadderDiagram, target: Permutation, dual: bool
) -> list[KoganFace]:
    """All reduced (dual) Kogan faces whose word multiplies to the target:
    every set of as many edges as the target is long, in the order of
    ``itertools.combinations`` over the effective edges of the kind."""
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
