"""Symmetric-group machinery: composition, length, Bruhat order, reduced
words, parabolic coset representatives and commuting-support factorizations.

Permutations are stored in one-line notation as tuples of 1..n.  All values
are immutable and every operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, order=True)
class Permutation:
    """Element of S_n in one-line notation ``(w(1), ..., w(n))``."""

    window: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.window) != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.window)}: {self.window}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(i: int, n: int) -> "Permutation":
        """The simple reflection s_i swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} does not exist in S_{n}")
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    @staticmethod
    def from_word(word: tuple[int, ...] | list[int], n: int) -> "Permutation":
        """Product s_{i1} s_{i2} ... applied left to right."""
        w = Permutation.identity(n)
        for i in word:
            w = w.right_mul_s(i)
        return w

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.window, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def right_mul_s(self, i: int) -> "Permutation":
        """w * s_i: swap the window entries at positions i, i+1."""
        w = list(self.window)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def left_mul_s(self, i: int) -> "Permutation":
        """s_i * w: swap the values i and i+1."""
        w = list(self.window)
        a, b = w.index(i), w.index(i + 1)
        w[a], w[b] = w[b], w[a]
        return Permutation(tuple(w))

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def image(self, indices) -> tuple[int, ...]:
        """Sorted image of a set of positions."""
        return tuple(sorted(self.window[i - 1] for i in indices))

    def __repr__(self) -> str:
        return f"Permutation({','.join(map(str, self.window))})"


class UnsupportedShapeError(ValueError):
    """Raised when an operation is only characterized for Grassmannians or
    complete flags and another shape is requested."""


class InputError(ValueError):
    """Raised when caller-supplied data fails a precondition: bad input, as
    opposed to a fault of the engine."""


@dataclass(frozen=True)
class ParabolicShape:
    """Strictly increasing cuts 0 < n_1 < ... < n_k < n defining a block
    structure on 1..n.  ``cuts`` excludes the trailing n."""

    cuts: tuple[int, ...]
    n: int

    def __post_init__(self):
        seq = (0,) + self.cuts + (self.n,)
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"cuts must satisfy 0 < n_1 < ... < n_k < n: {self.cuts}; n={self.n}")

    @staticmethod
    def parse(text: str) -> "ParabolicShape":
        """Parse 'n1,n2,...,nk,n' (the last entry is n)."""
        parts = tuple(int(p) for p in text.replace("(", "").replace(")", "").split(","))
        if len(parts) < 2:
            raise ValueError(f"shape needs at least one cut and n: {text!r}")
        return ParabolicShape(parts[:-1], parts[-1])

    @staticmethod
    def complete(n: int) -> "ParabolicShape":
        return ParabolicShape(tuple(range(1, n)), n)

    @property
    def k(self) -> int:
        return len(self.cuts)

    @property
    def bounds(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_{k+1}) including 0 and n."""
        return (0,) + self.cuts + (self.n,)

    def is_grassmannian(self) -> bool:
        return len(self.cuts) == 1

    def is_complete(self) -> bool:
        return self.cuts == tuple(range(1, self.n))

    def block_of(self, c: int) -> int:
        """1-based index l of the block containing column/value c."""
        for l, top in enumerate(self.bounds[1:], start=1):
            if c <= top:
                return l
        raise ValueError(f"column out of range: {c}")

    def level_of(self, c: int) -> int:
        """Smallest cut (or n) that is >= c."""
        return self.bounds[self.block_of(c)]

    def in_min_coset_reps(self, w: Permutation) -> bool:
        """True iff w increases within every block."""
        b = self.bounds
        return all(
            w(j) < w(j + 1)
            for l in range(1, len(b))
            for j in range(b[l - 1] + 1, b[l])
        )

    def __str__(self) -> str:
        return ",".join(map(str, self.cuts + (self.n,)))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u o v)(i) = u(v(i))."""
    if u.n != v.n:
        raise ValueError(f"rank mismatch: {u.n} vs {v.n}")
    return Permutation(tuple(u.window[j - 1] for j in v.window))


@lru_cache(maxsize=None)
def _inversions(window: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(window)), 2) if window[i] > window[j])


def length(w: Permutation) -> int:
    """Number of inversions; equals the length of any reduced word."""
    return _inversions(w.window)


def longest_element(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


def cyclic_shift(n: int) -> Permutation:
    """The n-cycle sending i to i+1 (and n to 1), in one-line notation
    (2, 3, ..., n, 1)."""
    return Permutation(tuple(range(2, n + 1)) + (1,))


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via the sorted-prefix (rank matrix) criterion."""
    if u.n != w.n:
        raise ValueError(f"rank mismatch: {u.n} vs {w.n}")
    for j in range(1, u.n):
        su = sorted(u.window[:j])
        sw = sorted(w.window[:j])
        if any(a > b for a, b in zip(su, sw)):
            return False
    return True


def descents(w: Permutation) -> list[int]:
    """Right descents: i with w(i) > w(i+1)."""
    return [i for i in range(1, w.n) if w(i) > w(i + 1)]


@lru_cache(maxsize=None)
def _reduced_word_cached(window: tuple[int, ...]) -> tuple[int, ...]:
    w = Permutation(window)
    word: list[int] = []
    while not w.is_identity():
        # left descent at i <=> i+1 occurs before i in the window; taking the
        # smallest such i at every step yields the lex-smallest reduced word.
        win = w.window
        pos = {v: p for p, v in enumerate(win)}
        i = min(i for i in range(1, w.n) if pos[i + 1] < pos[i])
        word.append(i)
        w = w.left_mul_s(i)
    return tuple(word)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """The lexicographically smallest reduced word of w."""
    return _reduced_word_cached(w.window)


def min_coset_rep(w: Permutation, shape: ParabolicShape) -> Permutation:
    """pi(w): sort the window within every block of the shape."""
    if w.n != shape.n:
        raise ValueError(f"rank mismatch: {w.n} vs shape n={shape.n}")
    b = shape.bounds
    out: list[int] = []
    for l in range(1, len(b)):
        out.extend(sorted(w.window[b[l - 1]: b[l]]))
    return Permutation(tuple(out))


def grassmannian_perm(mu: tuple[int, ...], m: int, n: int) -> Permutation:
    """The minimal coset representative with w(m+1-r) - (m+1-r) = mu_r.

    ``mu`` must fit in the m x (n-m) box and is given weakly decreasing.
    """
    mu = tuple(mu)
    if len(mu) != m:
        raise InputError(f"partition must have {m} parts (pad with zeros): {mu}")
    if any(mu[r] < mu[r + 1] for r in range(m - 1)) or any(p < 0 for p in mu):
        raise InputError(f"not a partition: {mu}")
    if mu[0] > n - m:
        raise InputError(f"partition {mu} does not fit in {m}x{n - m}")
    first = [mu[m - j] + j for j in range(1, m + 1)]
    rest = [v for v in range(1, n + 1) if v not in set(first)]
    return Permutation(tuple(first + rest))


def partition_of_perm(w: Permutation, m: int) -> tuple[int, ...]:
    """Inverse of grassmannian_perm on level-m minimal coset reps."""
    shape = ParabolicShape((m,), w.n)
    if not shape.in_min_coset_reps(w):
        raise ValueError(f"{w} is not a minimal coset representative for m={m}")
    return tuple(w(m + 1 - r) - (m + 1 - r) for r in range(1, m + 1))


@dataclass(frozen=True)
class StarFactorization:
    """Factorization u = u_1 ... u_m with pairwise disjoint, pairwise
    commuting reduced-word supports Xi_i on the Dynkin line."""

    factors: tuple[Permutation, ...]
    supports: tuple[frozenset[int], ...]

    @property
    def level(self) -> int:
        return len(self.factors)


def star_factorize(u: Permutation) -> StarFactorization:
    """Split u along the connected components of its reduced-word support.

    The component split realizes the maximal level: any valid factorization
    must keep adjacent simple reflections in one factor.
    """
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
    factors = []
    for comp in components:
        comp_set = set(comp)
        factors.append(Permutation.from_word([i for i in word if i in comp_set], u.n))
    return StarFactorization(tuple(factors), tuple(frozenset(c) for c in components))


def parse_permutation(text: str, n: int) -> Permutation:
    """Accept 'id', a window '3124' or '3,1,2,4', or a word 's1*s2*s1'."""
    text = text.strip()
    if text in ("id", "e", ""):
        return Permutation.identity(n)
    if text.startswith("s"):
        word = [int(p.lstrip("s")) for p in text.split("*")]
        for i in word:
            if not 1 <= i < n:
                raise ValueError(f"s{i} is not a simple reflection of S{n}")
        return Permutation.from_word(word, n)
    if "," in text:
        window = tuple(int(p) for p in text.split(","))
    else:
        window = tuple(int(ch) for ch in text)
    if len(window) != n:
        raise ValueError(f"window {text!r} has {len(window)} entries, expected {n}")
    return Permutation(window)


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse '(2,1,0)' or '2,1,0'."""
    body = text.strip().lstrip("(").rstrip(")")
    if not body:
        return ()
    return tuple(int(p) for p in body.split(","))
