"""The slow reference for the Schubert structure constants.

The package computes a constant from a memoised table of truncated products
(``gcschub.coeffs.structure_constant``: Monk's rule and the transition on
S_n).  This module keeps the oracle it replaced: Schubert polynomials built
by divided differences, multiplied as sparse polynomials and written back in
the Schubert basis by peeling colex-leading monomials, so that tests can
compare the two.  It also keeps the lexicographically smallest reduced
word of a permutation, and the commuting-support factorization replayed
from that word, which ``gcschub.weyl.star_factorize`` reads off the window,
and the Littlewood-Richardson rule that enumerates every semistandard
filling before it checks the lattice condition on the finished tableau,
which ``gcschub.coeffs.gr_structure_constant`` checks entry by entry.

Polynomials are sparse dicts mapping exponent tuples (trailing zeros
trimmed) to integer coefficients.  Products of S_n classes can involve basis
elements outside S_n; expansions are carried out in however many variables
the monomials demand, and keyed by trimmed windows.
"""

from __future__ import annotations

from functools import lru_cache

from gcschub.weyl import Permutation, length

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


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """The lexicographically smallest reduced word of w."""
    word: list[int] = []
    win = list(w.window)
    while win != sorted(win):
        # left descent at i <=> i+1 occurs before i in the window; taking the
        # smallest such i at every step yields the lex-smallest reduced word.
        # Left-multiplying by s_i then swaps the values i and i+1.
        pos = {v: p for p, v in enumerate(win)}
        i = min(i for i in range(1, w.n) if pos[i + 1] < pos[i])
        win[pos[i]], win[pos[i + 1]] = i + 1, i
        word.append(i)
    return tuple(word)


def star_factorize_by_word(u: Permutation) -> tuple[Permutation, ...]:
    """The commuting-support factorization of u, replayed from its reduced
    word: one factor per connected run of the letters it uses, each the
    product of u's letters in that run, in word order."""
    if u.is_identity():
        raise ValueError("identity admits no factorization")
    word = reduced_word(u)
    support = sorted(set(word))
    components: list[list[int]] = [[support[0]]]
    for s in support[1:]:
        if s == components[-1][-1] + 1:
            components[-1].append(s)
        else:
            components.append([s])
    return tuple(
        Permutation.from_word([i for i in word if i in comp], u.n) for comp in components
    )


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
    """Schubert-basis expansion of the product of the classes of us, in
    S_infinity: keys are trimmed windows of any size."""
    key = tuple(sorted(_trim_window(u.window) for u in us))
    return dict(_product_expansion(key))


def truncated_product(us: list[Permutation], n: int) -> dict[tuple[int, ...], int]:
    """``expand_product`` restricted to S_n, keyed by full windows of S_n."""
    return {
        window + tuple(range(len(window) + 1, n + 1)): c
        for window, c in expand_product(us).items()
        if len(window) <= n
    }


def structure_constant_reference(us: list[Permutation], w: Permutation) -> int:
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


# -- Littlewood-Richardson tableaux, filtered after the fact --------------------


def _contains(eta: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    return all(e >= m for e, m in zip(eta, mu)) and len(eta) >= len(mu)


def lr_coefficient(mu: tuple[int, ...], nu: tuple[int, ...], eta: tuple[int, ...]) -> int:
    """Count Littlewood-Richardson tableaux of shape eta/mu and content nu:
    semistandard fillings whose reverse reading word is a lattice word.

    Fillings are enumerated row by row and the lattice condition is checked
    on the finished tableau.
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
    grid: list[list[int]] = [[0] * part for part in eta]
    return _lr_fillings(eta, mu, nu, grid, [0] * (len(nu) + 1), 0, mu[0])


def _lr_fillings(eta, mu, nu, grid: list[list[int]], counts: list[int], r: int, c: int) -> int:
    """Number of Littlewood-Richardson tableaux that complete ``grid``,
    filled before cell (r, c) of eta/mu with ``counts[v]`` entries v."""
    rows = len(eta)
    if r == rows:
        return int(_lattice_ok(eta, mu, grid, len(nu)))
    if c == eta[r]:
        return _lr_fillings(eta, mu, nu, grid, counts, r + 1, mu[r + 1] if r + 1 < rows else 0)
    left = grid[r][c - 1] if c > mu[r] else 1
    # cells inside mu hold 0, so they impose no column constraint
    above = grid[r - 1][c] if r > 0 and c < eta[r - 1] else 0
    lo = max(left, above + 1) if above else max(left, 1)
    total = 0
    for v in range(lo, len(nu) + 1):
        if counts[v] == nu[v - 1]:
            continue
        counts[v] += 1
        grid[r][c] = v
        total += _lr_fillings(eta, mu, nu, grid, counts, r, c + 1)
        grid[r][c] = 0
        counts[v] -= 1
    return total


def _lattice_ok(eta, mu, grid: list[list[int]], nvals: int) -> bool:
    """Whether the reverse reading word of the filled tableau is a lattice
    word."""
    running = [0] * (nvals + 1)
    for r in range(len(eta)):
        for c in range(eta[r] - 1, mu[r] - 1, -1):
            v = grid[r][c]
            running[v] += 1
            if v > 1 and running[v] > running[v - 1]:
                return False
    return True
