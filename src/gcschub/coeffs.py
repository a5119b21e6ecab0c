"""Structure-constant oracles and the reduction calculus.

Two independent oracles guard against implementation error: Monk's rule
with the Lascoux-Schutzenberger transition on S_n (any type-A constant) and
the Littlewood-Richardson tableau rule (Grassmannian constants).  On top
sits the modified partition of the triple set used by the certificate
sweeps, closed under the triple symmetries and extended by the
commuting-support splitting, built on integer tables of S_n.

The first oracle reads a constant off a lazily memoised row table: the row
of (u, y) is the Schubert expansion of S_u * S_y truncated to S_n, keyed by
full windows.  A row is filled by the transition, which writes S_u as
x_r * S_v plus classes of the length of u, and by Monk's rule for x_r *
S_z.  A two-factor constant is one row lookup; products of three or more
factors fold left over rows.  Truncation is exact: a nonzero c_{x,y}^z has
x <= z in Bruhat order, S_n is a lower Bruhat ideal of S_infinity, and
every Monk term lies above the class it multiplies, so a class outside S_n
never feeds a class inside it.  The polynomial oracle the table replaced
is kept in ``tests/reference_oracle.py`` as the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .weyl import (
    InputError,
    Permutation,
    UnsupportedShapeError,
    _inversions,
    length,
    star_factorize,
)


def _swap(window: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """window * t_ij: swap the entries at positions i < j."""
    return window[: i - 1] + (window[j - 1],) + window[i:j - 1] + (window[i - 1],) + window[j:]


@lru_cache(maxsize=None)
def _monk(z: tuple[int, ...], r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monk's rule truncated to S_n: x_r * S_z is the sum of S_{z t_rb}
    (b > r) minus the sum of S_{z t_ar} (a < r) over the transpositions that
    raise the length by one, that is with no value strictly between z(r)
    and the swapped value at a position in between.  The terms with b > n
    leave S_n and are dropped."""
    zr = z[r - 1]
    terms = []
    between = len(z) + 1
    for b in range(r + 1, len(z) + 1):
        if zr < z[b - 1] < between:
            between = z[b - 1]
            terms.append((_swap(z, r, b), 1))
    between = 0
    for a in range(r - 1, 0, -1):
        if between < z[a - 1] < zr:
            between = z[a - 1]
            terms.append((_swap(z, a, r), -1))
    return tuple(terms)


@lru_cache(maxsize=None)
def _row(u: tuple[int, ...], y: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """S_u * S_y truncated to S_n, as {window: coefficient}; shared, so
    never mutated.  For u other than the identity, the transition takes r
    the last descent of u, s the largest j > r with u(j) < u(r) and
    v = u t_rs: S_u = x_r * S_v + the sum of S_{v t_qr} over the q < r
    where v t_qr is as long as u, which are the negative terms of Monk's
    rule for x_r * S_v."""
    r = next((i for i in range(len(u) - 1, 0, -1) if u[i - 1] > u[i]), 0)
    if not r:
        return {y: 1}
    s = max(j for j in range(r + 1, len(u) + 1) if u[j - 1] < u[r - 1])
    v = _swap(u, r, s)
    out: dict[tuple[int, ...], int] = {}
    for z, c in _row(v, y).items():
        for t, sign in _monk(z, r):
            out[t] = out.get(t, 0) + sign * c
    for t, sign in _monk(v, r):
        if sign < 0:
            for z, c in _row(t, y).items():
                out[z] = out.get(z, 0) + c
    row = {z: c for z, c in out.items() if c}
    if any(c < 0 for c in row.values()):
        raise AssertionError(f"negative coefficient in the Schubert product of {u} and {y}")
    return row


def _fold(windows: list[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """The product of the classes of one or more windows of S_n, truncated
    to S_n: the rows folded left from the row of the first two.  Two
    windows give that shared row itself, so callers never mutate it."""
    if len(windows) == 1:
        return {windows[0]: 1}
    acc = _row(windows[0], windows[1])
    for y in windows[2:]:
        nxt: dict[tuple[int, ...], int] = {}
        for z, c in acc.items():
            for t, d in _row(z, y).items():
                nxt[t] = nxt.get(t, 0) + c * d
        acc = nxt
    return acc


def structure_constant(us: list[Permutation], w: Permutation) -> int:
    """Coefficient of the class of w in the product of the classes of us."""
    target = w.window
    n = len(target)
    windows = []
    degree = 0
    for u in us:
        x = u.window
        if len(x) != n:
            raise InputError("all permutations must share one rank")
        windows.append(x)
        degree += _inversions(x)
    if degree != _inversions(target):
        return 0
    # the empty product is the class of the identity
    return _fold(windows or [tuple(range(1, n + 1))]).get(target, 0)


# -- Littlewood-Richardson oracle ------------------------------------------------


def gr_structure_constant(
    mu: tuple[int, ...], nu: tuple[int, ...], eta: tuple[int, ...], m: int, n: int
) -> int:
    """The Littlewood-Richardson coefficient of sigma^eta in sigma^mu *
    sigma^nu on Gr(m, n): the number of semistandard fillings of eta/mu with
    content nu whose reverse reading word is a lattice word.

    The cells are filled in reverse reading order, rows top to bottom and
    each row right to left, so the entries placed so far are the word read
    so far and the lattice condition is one test per entry.  A partition
    that is not weakly decreasing inside the m x (n-m) box is an InputError.
    """
    for part in (mu, nu, eta):
        chain = (n - m, *part, 0)
        if len(part) > m or any(a < b for a, b in zip(chain, chain[1:])):
            raise InputError(f"{part} is not a partition inside the {m}x{n - m} box")
    nu = tuple(v for v in nu if v)
    mu = tuple(mu) + (0,) * (m - len(mu))
    eta = tuple(eta) + (0,) * (m - len(eta))
    if sum(eta) != sum(mu) + sum(nu) or any(e < u for e, u in zip(eta, mu)):
        return 0
    cells = [(r, c) for r in range(m) for c in range(eta[r] - 1, mu[r] - 1, -1)]
    # cells inside mu stay 0, so a cell under one starts at 1
    grid = [[0] * e for e in eta]
    return _lr_count(nu, grid, cells, [0] * (len(nu) + 1), 0)


def _lr_count(nu, grid: list[list[int]], cells, counts: list[int], k: int) -> int:
    """Number of Littlewood-Richardson tableaux that complete ``grid``,
    filled at ``cells[:k]`` with ``counts[v]`` entries v.  Every count stays
    within nu and the sizes match, so a complete filling has content nu."""
    if k == len(cells):
        return 1
    r, c = cells[k]
    row = grid[r]
    # greater than the entry above, at most the entry to the right; both
    # were written earlier on this branch, so no cell is ever reset
    hi = row[c + 1] if c + 1 < len(row) else len(nu)
    total = 0
    for v in range(grid[r - 1][c] + 1 if r else 1, hi + 1):
        # the content of v is used up, or v would outnumber v - 1 in the word
        if counts[v] == nu[v - 1] or (v > 1 and counts[v] == counts[v - 1]):
            continue
        counts[v] += 1
        row[c] = v
        total += _lr_count(nu, grid, cells, counts, k + 1)
        counts[v] -= 1
    return total


# -- the Chevalley rule --------------------------------------------------------


def chevalley(mu: tuple[int, ...], m: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """sigma^1 . sigma^mu = sum of sigma^eta over eta >= mu with one more box."""
    mu = tuple(mu) + (0,) * (m - len(mu))
    out = []
    for r in range(m):
        nxt = list(mu)
        nxt[r] += 1
        bound = n - m if r == 0 else mu[r - 1]
        if nxt[r] <= bound:
            out.append((tuple(nxt), 1))
    return out


Triple = tuple[Permutation, Permutation, Permutation]


def _star_factors(u: Permutation) -> tuple[Permutation, ...]:
    return (u,) if u.is_identity() else star_factorize(u)


# -- the modified partition -----------------------------------------------------


@dataclass(frozen=True)
class TripleClass:
    """Equivalence class of index tuples sharing one structure constant.

    ``kind`` is "zero" for the merged class of degree-compatible triples
    that vanish, "regular" otherwise.  ``members`` are plain triples;
    ``extended`` the added commuting-split tuples.
    """

    kind: str
    members: tuple[Triple, ...]
    extended: tuple[tuple[Permutation, ...], ...]


class SnTables:
    """Integer tables of S_n.  A permutation is named by its index in
    lexicographic window order, which is ``Permutation`` order, so sorting
    index tuples sorts the permutation tuples they name.

    * ``length[k]``: the length of perms[k];
    * ``ascents[k]``: bit i set when perms[k] ascends at i, that is when
      perms[k] * s_i is longer;
    * ``right_mul[i][k]``: perms[k] * s_i, for i = 1..n-1;
    * ``conj[k]`` and ``w0_left[k]``: w0 * perms[k] * w0 and w0 * perms[k];
    * ``below[k]``: bit j set when perms[j] <= perms[k] in Bruhat order,
      the bit of k OR'd with the ``below`` of each perms[k] * t_ij that
      perms[k] covers, filled in length order; for i < j that is when
      perms[k](i) > perms[k](j) and no value between them sits at a
      position between them, the length then dropping by exactly one
      (Bjorner-Brenti, Ch. 2), and Bruhat order is the transitive closure
      of its covers;
    * ``star[k]``: the commuting-support factors of perms[k], or perms[k]
      itself when it is the identity;
    * ``triples``: the degree-compatible index triples (u, v, w), ordered
      by w, then length(u), then u, then v; the triple (u, v, w) sits at
      ``_first[w][u] + _rank[v]``, where ``_rank[v]`` is the position of v
      among the permutations of its length.
    """

    def __init__(self, n: int):
        windows = list(itertools.permutations(range(1, n + 1)))
        where = {win: k for k, win in enumerate(windows)}
        self.n = n
        self.perms = [Permutation(win) for win in windows]
        self.length = [length(p) for p in self.perms]
        self.ascents = [
            sum(1 << i for i in range(1, n) if win[i - 1] < win[i]) for win in windows
        ]
        self.right_mul = [[]] + [
            [where[win[: i - 1] + (win[i], win[i - 1]) + win[i + 1:]] for win in windows]
            for i in range(1, n)
        ]
        self.conj = [where[tuple(n + 1 - x for x in reversed(win))] for win in windows]
        self.w0_left = [where[tuple(n + 1 - x for x in win)] for win in windows]
        self.star = [tuple(where[f.window] for f in _star_factors(p)) for p in self.perms]

        by_len: dict[int, list[int]] = {}
        for k, lk in enumerate(self.length):
            by_len.setdefault(lk, []).append(k)
        # the covers of perms[k] are shorter, so their rows are filled first
        self.below = [0] * len(windows)
        for lk in sorted(by_len):
            for k in by_len[lk]:
                win = windows[k]
                bits = 1 << k
                for i in range(1, n):
                    between = 0
                    for j in range(i + 1, n + 1):
                        if between < win[j - 1] < win[i - 1]:
                            between = win[j - 1]
                            bits |= self.below[where[_swap(win, i, j)]]
                self.below[k] = bits
        self._rank = [0] * len(windows)
        for ks in by_len.values():
            for r, k in enumerate(ks):
                self._rank[k] = r
        # _first[w][u]: index of (u, v, w) for the first v of length l(w) - l(u)
        self._first: list[list[int]] = []
        self.triples: list[tuple[int, int, int]] = []
        for w, lw in enumerate(self.length):
            first = [-1] * len(windows)
            for lu in range(lw + 1):
                vs = by_len.get(lw - lu, [])
                for u in by_len.get(lu, []):
                    first[u] = len(self.triples)
                    self.triples.extend((u, v, w) for v in vs)
            self._first.append(first)


def build_modified_partition(n: int, bound: int = 5) -> list[TripleClass]:
    """Partition the degree-compatible triples of S_n into constant classes:
    seed with the Bruhat-incompatible zero set, close under the swap, the
    w0-conjugation, the (u, v, w) -> (u, w0 w, w0 v) symmetry and the
    right-multiplication steps, merge every class that witnesses a vanishing
    move into the zero class, and attach the commuting-split tuples.  Runs
    on the index triples of ``SnTables``; a class is listed at its first
    member in the order of ``SnTables.triples``.  Shapes with n above ``bound`` raise
    UnsupportedShapeError."""
    if n > bound:
        raise UnsupportedShapeError(f"n={n} exceeds the configured bound {bound}")
    tab = SnTables(n)
    triples = tab.triples
    zero_root = len(triples)
    uf = list(range(zero_root + 1))
    first, rank, ascents, right_mul = tab._first, tab._rank, tab.ascents, tab.right_mul
    below, conj, w0_left = tab.below, tab.conj, tab.w0_left
    for t, (u, v, w) in enumerate(triples):
        if below[w] >> u & below[w] >> v & 1:
            # the swap, the w0-conjugation and the w0 symmetry
            partners = [first[w][v] + rank[u], first[conj[w]][conj[u]] + rank[conj[v]],
                        first[w0_left[v]][u] + rank[w0_left[w]]]
            # where u and v both ascend at s_i, the constant moves to
            # (u s_i, v, w s_i) if w ascends too, and vanishes if w descends
            both = ascents[u] & ascents[v]
            if both:
                up = both & ascents[w]
                for i in range(1, n):
                    if up >> i & 1:
                        partners.append(first[right_mul[i][w]][right_mul[i][u]] + rank[v])
                if up != both:
                    partners.append(zero_root)
        else:
            partners = [zero_root]
        # merge the class of t with each partner's: path halving, and the
        # smaller root wins, so a stays the root of t's class
        a = t
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        for b in partners:
            while uf[b] != b:
                uf[b] = uf[uf[b]]
                b = uf[b]
            if b < a:
                uf[a] = b
                a = b
            elif a < b:
                uf[b] = a

    # every root is the smallest triple index of its class and every parent
    # precedes its child, so one pass in index order points each at its root
    for t in range(zero_root + 1):
        uf[t] = uf[uf[t]]
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for t, triple in enumerate(triples):
        groups.setdefault(uf[t], []).append(triple)
    zero = uf[zero_root]
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
