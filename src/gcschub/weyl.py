"""Symmetric-group machinery: composition, length, Bruhat order, parabolic
coset representatives and commuting-support factorizations.

Permutations are stored in one-line notation as tuples of 1..n.  All values
are immutable and every operation is pure.
"""

from __future__ import annotations

import itertools
import re
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
        return Permutation.identity(n).right_mul_s(i)

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

    def _check_simple(self, i: int):
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"s_{i} does not exist in S_{self.n}")

    def right_mul_s(self, i: int) -> "Permutation":
        """w * s_i: swap the window entries at positions i, i+1."""
        self._check_simple(i)
        w = list(self.window)
        w[i - 1], w[i] = w[i], w[i - 1]
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
        """Parse 'n1,n2,...,nk,n' or '(n1,...,nk,n)' (the last entry is n)."""
        parts = parse_numbers(_unwrap(text))
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
        # the cuts increase strictly within 1..n-1, so all of them are there
        return len(self.cuts) == self.n - 1

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
        raise InputError(f"rank mismatch: {u.n} vs {v.n}")
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
        raise InputError(f"rank mismatch: {u.n} vs {w.n}")
    for j in range(1, u.n):
        su = sorted(u.window[:j])
        sw = sorted(w.window[:j])
        if any(a > b for a, b in zip(su, sw)):
            return False
    return True


def min_coset_rep(w: Permutation, shape: ParabolicShape) -> Permutation:
    """pi(w): sort the window within every block of the shape."""
    if w.n != shape.n:
        raise InputError(f"rank mismatch: {w.n} vs shape n={shape.n}")
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
    taken = set(first)
    rest = [v for v in range(1, n + 1) if v not in taken]
    return Permutation(tuple(first + rest))


def partition_of_perm(w: Permutation, m: int) -> tuple[int, ...]:
    """Inverse of grassmannian_perm on level-m minimal coset reps."""
    shape = ParabolicShape((m,), w.n)
    if not shape.in_min_coset_reps(w):
        raise InputError(f"{w} is not a minimal coset representative for m={m}")
    return tuple(w(m + 1 - r) - (m + 1 - r) for r in range(1, m + 1))


def star_factorize(u: Permutation) -> tuple[Permutation, ...]:
    """Split u = u_1 ... u_m along the connected components of its
    support: the factors have pairwise disjoint, pairwise commuting supports
    on the Dynkin line.

    s_i lies in the support of u exactly when u does not map 1..i onto
    itself, that is when max(u(1..i)) > i.  The factor of a component
    s_a..s_b agrees with u on the positions a..b+1 and fixes the others.
    The component split gives the most factors (the maximal level): any
    valid factorization must keep adjacent simple reflections in one factor.
    """
    if u.is_identity():
        raise ValueError("identity admits no factorization")
    win, n = u.window, u.n
    factors = []
    start = 0  # u maps 1..start onto itself
    for i, top in enumerate(itertools.accumulate(win, max), start=1):
        if top > i:
            continue
        if i - start > 1:
            factors.append(Permutation(
                tuple(range(1, start + 1)) + win[start:i] + tuple(range(i + 1, n + 1))))
        start = i
    return tuple(factors)


_LETTER = re.compile(r"s([0-9]+)")
_NATURAL = re.compile(r"[0-9]+")
_INTEGER = re.compile(r"-?[0-9]+")


def parse_numbers(text: str, signed: bool = False) -> tuple[int, ...]:
    """Parse comma-separated numbers, each of ASCII digits only, with a
    leading minus sign allowed when ``signed``: no plus sign, space or
    underscore, as ``int`` would take."""
    pattern = _INTEGER if signed else _NATURAL
    parts = text.split(",")
    bad = [p for p in parts if not pattern.fullmatch(p)]
    if bad:
        kind = "an integer" if signed else "a number of digits 0-9"
        raise ValueError(f"{bad[0]!r} in {text!r} is not {kind}")
    return tuple(int(p) for p in parts)


def parse_permutation(text: str, n: int) -> Permutation:
    """Accept 'id', a window '3124' or '3,1,2,4', or a word 's1*s2*s1'."""
    text = text.strip()
    if text == "id":
        return Permutation.identity(n)
    if text.startswith("s"):
        letters = [_LETTER.fullmatch(p) for p in text.split("*")]
        if not all(letters):
            raise ValueError(f"every letter of the word {text!r} must be s followed by digits")
        return Permutation.from_word([int(m[1]) for m in letters], n)
    if "," in text:
        window = parse_numbers(text)
    elif _NATURAL.fullmatch(text):
        window = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f"{text!r} is not 'id', a window or a word")
    if len(window) != n:
        raise ValueError(f"window {text!r} has {len(window)} entries, expected {n}")
    return Permutation(window)


def _unwrap(text: str) -> str:
    """The text inside at most one pair of enclosing parentheses."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1]
    return text


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse '(2,1,0)' or '2,1,0'; the entries are integers, so that a
    lattice weight may be negative."""
    body = _unwrap(text)
    if not body:
        return ()
    return parse_numbers(body, signed=True)
