"""The references for the modified partition of the triple set.

The package builds the partition on integer tables of S_n
(``gcschub.coeffs.SnTables``) with one inline union-find pass, which reads
the position of a triple and its right-multiplication moves off the tables
in the loop.  This module keeps the two constructions it replaced: the slow
one on ``Permutation`` objects, with the right-multiplication move written
out as ``recursion_step``, and the one on the same tables with ``find`` and
``union`` closures, fast enough to compare on S_5, which calls ``index``
and ``moves``, the two table lookups the loop inlines.  With them live the
moves on plain triples that the tests check against the oracle: the list of
degree-compatible triples, their orbit under the triple identities, and the
commuting-support split of a tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gcschub.coeffs import SnTables, Triple, TripleClass, _star_factors
from gcschub.weyl import Permutation, bruhat_leq, length, longest_element


def all_triples(n: int) -> list[Triple]:
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    by_len: dict[int, list[Permutation]] = {}
    for p in perms:
        by_len.setdefault(length(p), []).append(p)
    out = []
    for w in perms:
        lw = length(w)
        for lu in range(lw + 1):
            for u in by_len.get(lu, []):
                for v in by_len.get(lw - lu, []):
                    out.append((u, v, w))
    return out


def apply_identities(triple: Triple) -> frozenset[Triple]:
    """Orbit of (u, v, w) under the swap, the w0-conjugation and the
    (u, v, w) -> (u, w0 w, w0 v) symmetry."""
    u, v, w = triple
    w0 = longest_element(w.n)
    seen: set[Triple] = set()
    stack = [triple]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        a, b, c = t
        stack.append((b, a, c))
        stack.append((w0 * a * w0, w0 * b * w0, w0 * c * w0))
        stack.append((a, w0 * c, w0 * b))
    return frozenset(seen)


def split_by_star(tup: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    """Replace the first m+1 factors of (u_1, .., u_m, w) by their maximal
    commuting-support factorizations; the constant is unchanged."""
    *us, w = tup
    return tuple(f for u in us for f in _star_factors(u)) + (w,)


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


def index(tab: SnTables, u: int, v: int, w: int) -> int:
    """Position of the degree-compatible triple (u, v, w) in ``tab.triples``."""
    return tab._first[w][u] + tab._rank[v]


def moves(tab: SnTables, u: int, v: int, w: int) -> tuple[list[int], bool]:
    """The right-multiplication moves of (u, v, w).  Where u and v both
    ascend at s_i, the constant moves to (u s_i, v, w s_i) if w ascends
    too, and vanishes if w descends.  Returns the triple indices of the
    steps in increasing i, and whether some s_i makes the constant
    vanish."""
    both = tab.ascents[u] & tab.ascents[v]
    if not both:
        return [], False
    up = both & tab.ascents[w]
    steps = [
        index(tab, tab.right_mul[i][u], v, tab.right_mul[i][w])
        for i in range(1, tab.n) if up >> i & 1
    ]
    return steps, both != up


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

    below, conj, w0_left = tab.below, tab.conj, tab.w0_left
    for t, (u, v, w) in enumerate(triples):
        steps, vanishes = moves(tab, u, v, w)
        if vanishes:
            union(t, zero_root)
        if not (below[w] >> u & below[w] >> v & 1):
            union(t, zero_root)
            continue
        union(t, index(tab, v, u, w))
        union(t, index(tab, conj[u], conj[v], conj[w]))
        union(t, index(tab, u, w0_left[w], w0_left[v]))
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
