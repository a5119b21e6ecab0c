"""The references for the modified partition of the triple set.

The package builds the partition on integer tables of S_n
(``gcschub.coeffs.SnTables``) with one inline union-find pass.  This module
keeps the two constructions it replaced: the slow one on ``Permutation``
objects, with the right-multiplication move written out as
``recursion_step``, and the one on the same tables with ``find`` and
``union`` closures, fast enough to compare on S_5.
"""

from __future__ import annotations

from dataclasses import dataclass

from gcschub.coeffs import SnTables, Triple, TripleClass, all_triples, split_by_star
from gcschub.weyl import bruhat_leq, length, longest_element


@dataclass(frozen=True)
class RecursionResult:
    kind: str  # "step" | "zero" | "inapplicable"
    triple: Triple | None = None


def recursion_step(triple: Triple, i: int) -> RecursionResult:
    """Right-multiplication move: when u and v both ascend at s_i, the
    constant transfers to (u s_i, v, w s_i) if w ascends, and vanishes if w
    descends."""
    u, v, w = triple
    us, vs, ws = u.right_mul_s(i), v.right_mul_s(i), w.right_mul_s(i)
    if not (length(us) > length(u) and length(vs) > length(v)):
        return RecursionResult("inapplicable")
    if length(ws) > length(w):
        return RecursionResult("step", (us, v, ws))
    return RecursionResult("zero")


def build_modified_partition_reference(n: int) -> list[TripleClass]:
    """Partition the degree-compatible triples of S_n into constant classes:
    seed with the Bruhat-incompatible zero set, close under the four moves,
    then merge every class that witnesses a vanishing move into the zero
    class, and attach the commuting-split tuples."""
    triples = all_triples(n)
    index = {t: i for i, t in enumerate(triples)}
    uf = list(range(len(triples) + 1))
    zero_root = len(triples)

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[max(ra, rb)] = min(ra, rb)

    w0 = longest_element(n)
    for t in triples:
        u, v, w = t
        if not (bruhat_leq(u, w) and bruhat_leq(v, w)):
            union(index[t], zero_root)
            continue
        i0 = index[t]
        union(i0, index[(v, u, w)])
        union(i0, index[(w0 * u * w0, w0 * v * w0, w0 * w * w0)])
        union(i0, index[(u, w0 * w, w0 * v)])
        for i in range(1, n):
            res = recursion_step(t, i)
            if res.kind == "step":
                union(i0, index[res.triple])

    # classes witnessing a vanishing move merge into the zero class
    for t in triples:
        res_any = any(
            recursion_step(t, i).kind == "zero" for i in range(1, n)
        )
        if res_any:
            union(index[t], zero_root)

    groups: dict[int, list[Triple]] = {}
    for t in triples:
        groups.setdefault(find(index[t]), []).append(t)
    classes = []
    for root, members in sorted(groups.items()):
        kind = "zero" if root == find(zero_root) else "regular"
        extended = set()
        if kind == "regular":
            for t in members:
                split = split_by_star(t)
                if len(split) > 3:
                    extended.add(split)
        classes.append(
            TripleClass(kind, tuple(sorted(members)), tuple(sorted(extended)))
        )
    return classes


def build_modified_partition_closures(n: int) -> list[TripleClass]:
    """The partition on the index triples of ``SnTables``, closed by
    ``find`` and ``union`` closures with the moves computed for every
    triple."""
    tab = SnTables(n)
    triples = tab.triples
    zero_root = len(triples)
    uf = list(range(zero_root + 1))

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra < rb:
            uf[rb] = ra
        elif rb < ra:
            uf[ra] = rb

    index, moves, below, conj, w0_left = tab.index, tab.moves, tab.below, tab.conj, tab.w0_left
    for t, (u, v, w) in enumerate(triples):
        steps, vanishes = moves(u, v, w)
        if vanishes:
            union(t, zero_root)
        if not (below[w] >> u & below[w] >> v & 1):
            union(t, zero_root)
            continue
        union(t, index(v, u, w))
        union(t, index(conj[u], conj[v], conj[w]))
        union(t, index(u, w0_left[w], w0_left[v]))
        for step in steps:
            union(t, step)

    # every root is the smallest triple index of its class
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for t, triple in enumerate(triples):
        groups.setdefault(find(t), []).append(triple)
    zero = find(zero_root)
    perms, star = tab.perms, tab.star
    classes = []
    for root, members in sorted(groups.items()):
        kind = "zero" if root == zero else "regular"
        extended = set()
        if kind == "regular":
            for u, v, w in members:
                split = star[u] + star[v] + (w,)
                if len(split) > 3:
                    extended.add(split)
        classes.append(TripleClass(
            kind,
            tuple((perms[u], perms[v], perms[w]) for u, v, w in sorted(members)),
            tuple(tuple(perms[k] for k in split) for split in sorted(extended)),
        ))
    return classes
