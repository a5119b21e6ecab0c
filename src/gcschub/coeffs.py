"""Structure-constant oracles and the reduction calculus.

Two independent oracles guard against implementation error: Schubert
polynomials with divided differences (any type-A constant) and the
Littlewood-Richardson tableau rule (Grassmannian constants).  On top sit
the triple symmetries, the commuting-support splitting, and the modified
partition of the triple set used by the certificate sweeps, built on
integer tables of S_n.

Polynomials are sparse dicts mapping exponent tuples (trailing zeros
trimmed) to integer coefficients.  Products of S_n classes can involve basis
elements outside S_n; expansions are carried out in however many variables
the monomials demand, then restricted to the requested target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .weyl import (
    Permutation,
    UnsupportedShapeError,
    length,
    longest_element,
    reduced_word,
    star_factorize,
)

Monomial = tuple[int, ...]
SchubertPolynomial = dict[Monomial, int]


def _trim(mono) -> Monomial:
    mono = tuple(mono)
    while mono and mono[-1] == 0:
        mono = mono[:-1]
    return mono


def _trim_window(window: tuple[int, ...]) -> tuple[int, ...]:
    while len(window) > 1 and window[-1] == len(window):
        window = window[:-1]
    return window


def code(w: Permutation) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w(j) < w(i)}."""
    win = w.window
    return _trim(
        tuple(sum(1 for b in win[i + 1:] if b < a) for i, a in enumerate(win))
    )


def perm_from_code(c: tuple[int, ...]) -> tuple[int, ...]:
    """Trimmed window of the permutation with the given Lehmer code."""
    c = tuple(c)
    size = max((i + 1 + v for i, v in enumerate(c)), default=1)
    size = max(size, len(c) + 1)
    remaining = list(range(1, size + 1))
    window = []
    for i in range(size):
        ci = c[i] if i < len(c) else 0
        window.append(remaining.pop(ci))
    return _trim_window(tuple(window))


def poly_add(p: SchubertPolynomial, q: SchubertPolynomial, scale: int = 1) -> SchubertPolynomial:
    out = dict(p)
    for mono, coeff in q.items():
        new = out.get(mono, 0) + scale * coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def poly_mul(p: SchubertPolynomial, q: SchubertPolynomial) -> SchubertPolynomial:
    out: SchubertPolynomial = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            size = max(len(ma), len(mb))
            mono = _trim(
                tuple(
                    (ma[i] if i < len(ma) else 0) + (mb[i] if i < len(mb) else 0)
                    for i in range(size)
                )
            )
            new = out.get(mono, 0) + ca * cb
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def divided_difference(p: SchubertPolynomial, i: int) -> SchubertPolynomial:
    """(p - s_i p) / (x_i - x_{i+1}), acting on variables x_i, x_{i+1}."""
    out: SchubertPolynomial = {}
    for mono, coeff in p.items():
        size = max(len(mono), i + 1)
        alpha = list(mono) + [0] * (size - len(mono))
        a, b = alpha[i - 1], alpha[i]
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        # (x^a y^b - x^b y^a)/(x - y) = sign * sum x^s y^{lo+hi-1-s}, s=lo..hi-1
        for s in range(lo, hi):
            alpha[i - 1], alpha[i] = s, lo + hi - 1 - s
            mono2 = _trim(alpha)
            new = out.get(mono2, 0) + sign * coeff
            if new:
                out[mono2] = new
            else:
                out.pop(mono2, None)
    return out


@lru_cache(maxsize=None)
def _schubert_cached(window: tuple[int, ...]) -> tuple[tuple[Monomial, int], ...]:
    w = Permutation(window)
    n = w.n
    if w.is_identity():
        return (((), 1),)
    if window == tuple(range(n, 0, -1)):
        return ((_trim(tuple(range(n - 1, 0, -1))), 1),)
    i = next(i for i in range(1, n) if w(i) < w(i + 1))
    longer = w.right_mul_s(i)
    poly = dict(_schubert_cached(longer.window))
    return tuple(sorted(divided_difference(poly, i).items()))


def schubert_poly(w: Permutation) -> SchubertPolynomial:
    """The Schubert polynomial of w, stable under appending fixed points."""
    return dict(_schubert_cached(_trim_window(w.window)))


def _colex_max(p: SchubertPolynomial) -> Monomial:
    size = max(len(m) for m in p)
    return max(p, key=lambda m: tuple(reversed(m + (0,) * (size - len(m)))))


def expand_in_schubert_basis(p: SchubertPolynomial) -> dict[tuple[int, ...], int]:
    """Write p as an integer combination of Schubert polynomials by peeling
    the colex-largest monomial, which is the leading monomial x^{code(w)}.

    Keys of the result are trimmed windows.
    """
    out: dict[tuple[int, ...], int] = {}
    p = dict(p)
    guard = 0
    while p:
        guard += 1
        if guard > 100000:
            raise AssertionError("expansion did not terminate")
        mono = _colex_max(p)
        coeff = p[mono]
        window = perm_from_code(mono)
        piece = dict(_schubert_cached(window))
        lead = _colex_max(piece)
        if lead != mono or piece[lead] != 1:
            raise AssertionError(f"leading monomial mismatch for {window}: {lead} vs {mono}")
        out[window] = out.get(window, 0) + coeff
        p = poly_add(p, piece, scale=-coeff)
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _product_expansion(windows: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    poly: SchubertPolynomial = {(): 1}
    for window in windows:
        poly = poly_mul(poly, dict(_schubert_cached(window)))
    expansion = expand_in_schubert_basis(poly)
    if any(c < 0 for c in expansion.values()):
        raise AssertionError(f"negative coefficient in Schubert expansion of {windows}")
    return tuple(sorted(expansion.items()))


def expand_product(us: list[Permutation]) -> dict[tuple[int, ...], int]:
    """Schubert-basis expansion of the product of the classes of us."""
    key = tuple(sorted(_trim_window(u.window) for u in us))
    return dict(_product_expansion(key))


def structure_constant(us: list[Permutation], w: Permutation) -> int:
    """Coefficient of the class of w in the product of the classes of us."""
    if any(u.n != w.n for u in us):
        raise ValueError("all permutations must share one rank")
    if sum(length(u) for u in us) != length(w):
        return 0
    return expand_product(us).get(_trim_window(w.window), 0)


def constant_by_descents(us: list[Permutation], w: Permutation) -> int:
    """Independent evaluation: apply the divided-difference word of w to the
    product and read the constant term."""
    if sum(length(u) for u in us) != length(w):
        return 0
    poly: SchubertPolynomial = {(): 1}
    for u in us:
        poly = poly_mul(poly, schubert_poly(u))
    for i in reversed(reduced_word(w)):
        poly = divided_difference(poly, i)
    return poly.get((), 0)


# -- Littlewood-Richardson oracle ------------------------------------------------


def _contains(eta: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    return all(e >= m for e, m in zip(eta, mu)) and len(eta) >= len(mu)


def lr_coefficient(mu: tuple[int, ...], nu: tuple[int, ...], eta: tuple[int, ...]) -> int:
    """Count Littlewood-Richardson tableaux of shape eta/mu and content nu:
    semistandard fillings whose reverse reading word is a lattice word.

    Shapes are small here, so fillings are enumerated row by row and the
    lattice condition is checked on the finished tableau.
    """
    mu = tuple(v for v in mu if v)
    nu = tuple(v for v in nu if v)
    eta = tuple(v for v in eta if v)
    if sum(eta) != sum(mu) + sum(nu):
        return 0
    if len(mu) > len(eta) or not _contains(eta, mu):
        return 0
    if not nu:
        return 1 if eta == mu else 0
    mu = mu + (0,) * (len(eta) - len(mu))
    rows = len(eta)
    nvals = len(nu)
    grid: list[list[int]] = [[0] * eta[r] for r in range(rows)]
    counts = [0] * (nvals + 1)
    total = 0

    def lattice_ok() -> bool:
        running = [0] * (nvals + 1)
        for r in range(rows):
            for c in range(eta[r] - 1, mu[r] - 1, -1):
                v = grid[r][c]
                running[v] += 1
                if v > 1 and running[v] > running[v - 1]:
                    return False
        return True

    def fill(r: int, c: int):
        nonlocal total
        if r == rows:
            if lattice_ok():
                total += 1
            return
        if c == eta[r]:
            fill(r + 1, mu[r + 1] if r + 1 < rows else 0)
            return
        left = grid[r][c - 1] if c > mu[r] else 1
        # cells inside mu hold 0, so they impose no column constraint
        above = grid[r - 1][c] if r > 0 and c < eta[r - 1] else 0
        lo = max(left, above + 1) if above else max(left, 1)
        for v in range(lo, nvals + 1):
            if counts[v] == nu[v - 1]:
                continue
            counts[v] += 1
            grid[r][c] = v
            fill(r, c + 1)
            grid[r][c] = 0
            counts[v] -= 1

    fill(0, mu[0])
    return total


def gr_structure_constant(
    mu: tuple[int, ...], nu: tuple[int, ...], eta: tuple[int, ...], m: int, n: int
) -> int:
    """LR coefficient filtered to partitions inside the m x (n-m) box."""
    for part in (mu, nu, eta):
        if len(part) > m or (part and part[0] > n - m):
            raise ValueError(f"partition {part} does not fit in {m}x{n - m}")
    return lr_coefficient(mu, nu, eta)


# -- rules --------------------------------------------------------------------


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


Triple = tuple[Permutation, Permutation, Permutation]


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


def _star_factors(u: Permutation) -> tuple[Permutation, ...]:
    return (u,) if u.is_identity() else star_factorize(u).factors


def split_by_star(tup: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    """Replace the first m+1 factors of (u_1, .., u_m, w) by their maximal
    commuting-support factorizations; the constant is unchanged."""
    *us, w = tup
    return tuple(f for u in us for f in _star_factors(u)) + (w,)


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
      compared by sorted prefixes (Bjorner-Brenti, Thm 2.6.3);
    * ``star[k]``: the commuting-support factors of perms[k], or perms[k]
      itself when it is the identity;
    * ``triples``: the degree-compatible index triples (u, v, w) in the
      order of ``all_triples(n)``: w, then length(u), then u, then v.
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
        prefixes = [
            tuple(x for j in range(1, n) for x in sorted(win[:j])) for win in windows
        ]
        self.below = [
            sum(1 << j for j, pj in enumerate(prefixes)
                if self.length[j] <= self.length[k] and all(a <= b for a, b in zip(pj, pk)))
            for k, pk in enumerate(prefixes)
        ]
        self.star = [tuple(where[f.window] for f in _star_factors(p)) for p in self.perms]

        by_len: dict[int, list[int]] = {}
        for k, lk in enumerate(self.length):
            by_len.setdefault(lk, []).append(k)
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

    def index(self, u: int, v: int, w: int) -> int:
        """Position of the degree-compatible triple (u, v, w) in ``triples``."""
        return self._first[w][u] + self._rank[v]

    def moves(self, u: int, v: int, w: int) -> tuple[list[int], bool]:
        """The right-multiplication moves of (u, v, w).  Where u and v both
        ascend at s_i, the constant moves to (u s_i, v, w s_i) if w ascends
        too, and vanishes if w descends.  Returns the triple indices of the
        steps in increasing i, and whether some s_i makes the constant
        vanish."""
        both = self.ascents[u] & self.ascents[v]
        if not both:
            return [], False
        up = both & self.ascents[w]
        steps = [
            self.index(self.right_mul[i][u], v, self.right_mul[i][w])
            for i in range(1, self.n) if up >> i & 1
        ]
        return steps, both != up


def build_modified_partition(n: int, bound: int = 5) -> list[TripleClass]:
    """Partition the degree-compatible triples of S_n into constant classes:
    seed with the Bruhat-incompatible zero set, close under the swap, the
    w0-conjugation, the (u, v, w) -> (u, w0 w, w0 v) symmetry and the
    right-multiplication steps, merge every class that witnesses a vanishing
    move into the zero class, and attach the commuting-split tuples.  Runs
    on the index triples of ``SnTables``; a class is listed at its first
    member in ``all_triples`` order.  Shapes with n above ``bound`` raise
    UnsupportedShapeError."""
    if n > bound:
        raise UnsupportedShapeError(f"n={n} exceeds the configured bound {bound}")
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
