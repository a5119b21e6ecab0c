"""Transversality certificates: evaluate candidate translation tuples,
search over them, and sweep whole families of structure constants.

A certificate for (v_1..v_{m+1}, w) with translations (u_1..u_{m+1}) is
valid when the intersection S of the divisor facet unions of the u_i X^{v_i}
and of X_w collapses to finitely many polytope vertices, all lying on the
flag variety; the constant then equals the vertex count, which the engine
always cross-checks against the structure-constant oracle.

S is decided on vertex bitsets.  Its vertices are the AND of the vertex
bitsets of the pieces.  S is finite unless it holds a face of positive
dimension, and such a face holds an edge, whose two vertices lie in S.  A
face inside a union of finitely many faces lies in one of them, so two
vertices of S lie on one face inside S exactly when every divisor has a
facet that holds both: the face they span is then in S.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from dataclasses import dataclass, field
from functools import lru_cache

from . import __version__
from .coeffs import build_modified_partition, structure_constant
from .gc_polytope import Face, Polytope
from .ladder import LadderDiagram
from .pluecker import delta_uv
from .weyl import (
    InputError,
    ParabolicShape,
    Permutation,
    UnsupportedShapeError,
    bruhat_leq,
    cyclic_shift,
    grassmannian_perm,
    length,
    longest_element,
    min_coset_rep,
    partition_of_perm,
)

log = logging.getLogger("gcschub")


@dataclass(frozen=True)
class Certificate:
    shape: ParabolicShape
    vs: tuple[Permutation, ...]
    w: Permutation
    us: tuple[Permutation, ...]
    vertices: tuple[Face, ...]
    count: int
    oracle: int
    status: str  # "certified" | "mismatch"

    @property
    def ok(self) -> bool:
        return self.status == "certified"

    def to_json(self) -> dict:
        return {
            "shape": str(self.shape),
            "vs": [list(v.window) for v in self.vs],
            "w": list(self.w.window),
            "us": [list(u.window) for u in self.us],
            "vertices": [list(v.values) for v in self.vertices],
            "count": self.count,
            "oracle": self.oracle,
            "status": self.status,
        }


@dataclass(frozen=True)
class EvaluationFailure:
    kind: str  # "positive_dimension" | "vertex_outside_flag" | "unsupported_shape"
    detail: str

    @property
    def ok(self) -> bool:
        return False


def evaluate(
    poly: Polytope,
    vs: list[Permutation],
    w: Permutation,
    us: list[Permutation],
) -> Certificate | EvaluationFailure:
    """Compute S = Delta(w_0, pi(w_0 w)) cap_i Delta(u_i, v_i) and turn it
    into a certificate when it is a set of flag-variety vertices.

    Every piece is a translated Schubert variety u X^v, the target one too:
    X_w = w_0 X^{pi(w_0 w)}, so it comes first as the pair (w_0, pi(w_0 w)).
    Each Delta(u, v) depends on (u, v) alone: it is built once per
    polytope and kept in its ``delta_cache`` under the two windows, as a
    ``pluecker.Piece`` of vertex bitsets.  A shape with more vertices than
    ``gc_polytope.MAX_VERTICES`` raises UnsupportedShapeError from the
    count, before any piece is built.
    """
    shape = poly.shape
    for x in list(vs) + [w] + list(us):
        if x.n != poly.n:
            raise InputError(f"{x} is not a permutation of rank {poly.n}")
    if len(us) != len(vs):
        raise InputError(f"need one translation per factor: {len(us)} vs {len(vs)}")
    for x in list(vs) + [w]:
        if not shape.in_min_coset_reps(x):
            raise InputError(f"{x} is not a minimal coset representative for {shape}")
    if sum(length(v) for v in vs) != length(w):
        raise InputError("lengths of the factors must add up to the length of w")

    w0 = longest_element(poly.n)
    pieces = [(w0, min_coset_rep(w0 * w, shape))] + list(zip(us, vs))
    cache = poly.delta_cache
    inter = -1
    divisors = []
    for u, v in pieces:
        key = (u.window, v.window)
        piece = cache.get(key)
        if piece is None:
            piece = cache[key] = delta_uv(poly, u, v)
        inter &= piece.vertices
        divisors.extend(piece.divisors)

    oracle = structure_constant(list(vs), w)
    if not inter:
        status = "certified" if oracle == 0 else "mismatch"
        return Certificate(shape, tuple(vs), w, tuple(us), (), 0, oracle, status)
    pair = _pair_on_one_face(inter, divisors)
    if pair is not None:
        a, b = poly.vertices_in(pair)
        return EvaluationFailure(
            "positive_dimension",
            f"vertices {a.values} and {b.values} span a face inside the intersection",
        )
    verts = poly.vertices_in(inter)
    try:
        outside = [v for v in verts if not poly.in_VX(v)]
    except UnsupportedShapeError as exc:
        return EvaluationFailure("unsupported_shape", str(exc))
    if outside:
        log.info(
            "vertex in V but outside the flag variety for vs=%s w=%s us=%s: %s",
            vs, w, us, outside[0].values,
        )
        return EvaluationFailure(
            "vertex_outside_flag", f"vertex {outside[0].values} not on the flag variety"
        )
    count = len(verts)
    status = "certified" if count == oracle else "mismatch"
    return Certificate(shape, tuple(vs), w, tuple(us), tuple(verts), count, oracle, status)


def _pair_on_one_face(bits: int, divisors) -> int | None:
    """The bitset of two vertices of ``bits`` such that every divisor has a
    facet holding both, or None when no two do."""
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        # the relation is symmetric, so the vertices after this one suffice
        together = rest
        for facets in divisors:
            near = 0
            for f in facets:
                if f & low:
                    near |= f
            together &= near
            if not together:
                break
        if together:
            return low | (together & -together)
    return None


@dataclass
class SearchResult:
    """What a search found and what it cost: the certificate or None, the
    number of tuples evaluated, and the failures by kind.  When the budget
    runs out, ``cursor`` is the tier-3 index of the next untried tuple; it
    is 0 when tier 3 was never reached."""

    certificate: Certificate | None = None
    tried: int = 0
    cursor: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.certificate is not None and self.certificate.ok


@lru_cache(maxsize=None)
def _all_perms(n: int) -> tuple[Permutation, ...]:
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    return tuple(sorted(perms, key=lambda p: (length(p), p.window)))


def _tier1(poly: Polytope, vs):
    """Single moving translation in one slot, identity elsewhere."""
    n = poly.n
    m1 = len(vs)
    idt = Permutation.identity(n)
    yield tuple([idt] * m1)
    for slot in range(m1):
        for u in _all_perms(n)[1:]:  # the identity comes first
            us = [idt] * m1
            us[slot] = u
            yield tuple(us)


def _tier2(poly: Polytope, vs):
    """Constructive candidates: Chevalley, special pairs, cyclic shifts."""
    n = poly.n
    shape = poly.shape
    idt = Permutation.identity(n)
    out = []
    if shape.is_grassmannian() and len(vs) == 2:
        m = shape.cuts[0]
        try:
            parts = [partition_of_perm(v, m) for v in vs]
        except ValueError:
            parts = None
        if parts is not None:
            one_box = tuple([1] + [0] * (m - 1))
            single_rows = all(sum(1 for p in part if p) <= 1 for part in parts)
            for i, j in ((0, 1), (1, 0)):
                # Chevalley: translate the divisor class by the partner
                if parts[i] == one_box:
                    us = [idt, idt]
                    us[i] = vs[j]
                    out.append(tuple(us))
                # special pair (r, q): block shift on the r slot
                if single_rows:
                    r, q = parts[i][0], parts[j][0]
                    if r + q <= n - m:
                        window = list(range(1, n + 1))
                        for col in range(m, m + r):
                            window[col - 1] = col + q
                        used = set(window[:m + r - 1])
                        rest = [x for x in range(1, n + 1) if x not in used]
                        u = Permutation(tuple(window[:m + r - 1] + rest))
                        us = [idt, idt]
                        us[i] = u
                        out.append(tuple(us))
            # cyclic-shift candidates for two-row shapes
            if m == 2:
                cyc = cyclic_shift(n)
                power = idt
                for _ in range(n):
                    for slot in (0, 1):
                        us = [idt, idt]
                        us[slot] = power
                        out.append(tuple(us))
                    power = cyc * power
    return list(dict.fromkeys(out))


def _tier3(poly: Polytope, vs):
    """Full tuple enumeration in canonical order, with the tuple index."""
    return enumerate(itertools.product(_all_perms(poly.n), repeat=len(vs)))


def search(
    poly: Polytope,
    vs: list[Permutation],
    w: Permutation,
    budget: int = 3000,
    tiers: tuple[int, ...] = (1, 2, 3),
) -> SearchResult:
    """Try translation tuples in deterministic order until a certificate
    appears or the budget runs out.  Factors that fail the Bruhat test
    against w are settled by a single untranslated evaluation, whose shadow
    comes out empty.  A tier other than 1, 2 and 3 raises InputError before
    any evaluation."""
    unknown = [t for t in tiers if t not in (1, 2, 3)]
    if unknown:
        raise InputError(f"unknown search tiers {unknown}: the tiers are 1, 2 and 3")
    result = SearchResult()
    idt = Permutation.identity(poly.n)

    def attempt(us) -> bool:
        result.tried += 1
        res = evaluate(poly, vs, w, list(us))
        if isinstance(res, Certificate):
            if res.status == "mismatch":
                raise AssertionError(
                    f"certificate mismatch for vs={vs} w={w} us={us}: "
                    f"{res.count} vs oracle {res.oracle}"
                )
            result.certificate = res
            return True
        result.failures[res.kind] = result.failures.get(res.kind, 0) + 1
        return False

    def candidates(tier: int):
        if tier == 1:
            yield from _tier1(poly, vs)
        elif tier == 2:
            yield from _tier2(poly, vs)
        elif tier == 3:
            for idx, us in _tier3(poly, vs):
                result.cursor = idx
                yield us

    if any(not bruhat_leq(v, w) for v in vs):
        if attempt(tuple(idt for _ in vs)):
            return result

    for tier in tiers:
        for us in candidates(tier):
            if result.tried >= budget or attempt(us):
                return result
    return result


# -- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    kind: str                  # "zero" | "certified" | "unresolved"
    size: int
    representative: tuple
    witness: Certificate | None


@dataclass(frozen=True)
class SweepReport:
    shape: ParabolicShape
    classes: tuple[ClassReport, ...]

    @property
    def all_resolved(self) -> bool:
        return all(c.kind in ("zero", "certified") for c in self.classes)

    def summary(self) -> dict:
        kinds: dict[str, int] = {}
        for c in self.classes:
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
        return {
            "shape": str(self.shape),
            "classes": len(self.classes),
            "by_status": kinds,
            "all_resolved": self.all_resolved,
        }


def sweep_complete_flag(n: int, budget: int = 2000) -> SweepReport:
    """Partition the degree-compatible triples of S_n into constant classes
    and resolve each one: the merged zero class by the oracle, the rest by
    certificate search over the class members, split tuples included."""
    classes = build_modified_partition(n)
    shape = ParabolicShape.complete(n)
    poly = Polytope(LadderDiagram(shape))

    def resolve(cls) -> ClassReport:
        first = cls.members[0]
        constant = 0 if cls.kind == "zero" else structure_constant([first[0], first[1]], first[2])
        for (u, v, w) in cls.members:
            got = structure_constant([u, v], w)
            if got != constant:
                raise AssertionError(
                    f"class constant differs at {(u, v, w)}: {got} vs {constant}"
                )
        if cls.kind == "zero":
            return ClassReport("zero", len(cls.members), first, None)
        witness = None
        candidates: list[tuple] = sorted(
            cls.members, key=lambda t: (length(t[-1]), t)
        ) + sorted(cls.extended, key=lambda t: (length(t[-1]), len(t), t))
        for member in candidates:
            *us_part, w = member
            res = search(poly, list(us_part), w, budget=budget)
            if res.ok:
                witness = res.certificate
                break
        return ClassReport(
            "certified" if witness else "unresolved",
            len(cls.members),
            first,
            witness,
        )

    return SweepReport(shape, tuple(resolve(cls) for cls in classes))


@dataclass(frozen=True)
class Gr2Report:
    n: int
    entries: tuple[dict, ...]

    @property
    def all_resolved(self) -> bool:
        return all(e["status"] in ("zero", "certified") for e in self.entries)


def _box_partitions(m: int, width: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(width + 1), repeat=m)
            if all(a >= b for a, b in zip(p, p[1:]))]


def reduce_gr2(lam: tuple[int, int], mu: tuple[int, int], eta: tuple[int, int], n: int):
    """Peel the common (1,1)-content off a Gr(2, n) triple: the constant
    equals the one of single-row classes (a), (b) meeting (c, d), which is
    zero unless d <= min(a,b), c <= n-2 and c >= max(a,b), and otherwise
    reduces to the special pair (a-d, b-d) -> c-d in Gr(d+2, n)."""
    a, b = lam[0] - lam[1], mu[0] - mu[1]
    c = eta[0] - lam[1] - mu[1]
    d = eta[1] - lam[1] - mu[1]
    if d < 0 or c < d or c > n - 2 or c + d != a + b or c < max(a, b):
        return None
    # Gr(d+2, n) hosts the special pair (a-d, b-d) -> (c-d); when the pair
    # is trivial the constant is N_{id,id}^{id} in any Grassmannian, so the
    # rank is capped to keep the shape valid
    m2 = min(d + 2, n - 1) if a == d else d + 2
    lam2 = tuple([a - d] + [0] * (m2 - 1))
    mu2 = tuple([b - d] + [0] * (m2 - 1))
    eta2 = tuple([c - d] + [0] * (m2 - 1))
    return m2, lam2, mu2, eta2


def sweep_gr2(n: int, budget: int = 2000, tiers: tuple[int, ...] = (2, 1, 3)) -> Gr2Report:
    """Resolve every Gr(2, n) triple: reduce to a special pair and certify
    it with the block-shift construction, or establish zero.

    The constructive tier alone suffices; the later tiers are a fallback.
    """
    parts = _box_partitions(2, n - 2)
    polys: dict[int, Polytope] = {}
    entries = []
    for lam, mu, eta in itertools.product(parts, repeat=3):
        if sum(eta) != sum(lam) + sum(mu):
            continue
        oracle = structure_constant(
            [grassmannian_perm(lam, 2, n), grassmannian_perm(mu, 2, n)],
            grassmannian_perm(eta, 2, n),
        )
        red = reduce_gr2(lam, mu, eta, n)
        if red is None:
            if oracle != 0:
                raise AssertionError(f"reduction says zero but oracle {oracle} at {(lam, mu, eta)}")
            entries.append({"triple": (lam, mu, eta), "status": "zero", "N": 0})
            continue
        m2, lam2, mu2, eta2 = red
        if m2 not in polys:
            polys[m2] = Polytope(LadderDiagram(ParabolicShape((m2,), n)))
        vs = [grassmannian_perm(lam2, m2, n), grassmannian_perm(mu2, m2, n)]
        w = grassmannian_perm(eta2, m2, n)
        res = search(polys[m2], vs, w, budget=budget, tiers=tiers)
        if not res.ok:
            entries.append({"triple": (lam, mu, eta), "status": "unresolved", "N": oracle})
            continue
        if res.certificate.count != oracle:
            raise AssertionError(
                f"reduced certificate count {res.certificate.count} != oracle {oracle}"
            )
        entries.append({"triple": (lam, mu, eta), "status": "certified", "N": oracle})
    return Gr2Report(n, tuple(entries))


def sweep_gr1(n: int, budget: int = 500) -> Gr2Report:
    """Projective space: every constant is Chevalley-type and certifies."""
    shape = ParabolicShape((1,), n)
    poly = Polytope(LadderDiagram(shape))
    entries = []
    for a in range(n):
        for b in range(n):
            c = a + b
            if c > n - 1:
                continue
            vs = [grassmannian_perm((a,), 1, n), grassmannian_perm((b,), 1, n)]
            w = grassmannian_perm((c,), 1, n)
            res = search(poly, vs, w, budget=budget, tiers=(2, 1))
            status = "unresolved"
            if res.ok:
                status = "certified" if res.certificate.count else "zero"
            entries.append({"triple": ((a,), (b,), (c,)), "status": status,
                            "N": res.certificate.count if res.ok else None})
    return Gr2Report(n, tuple(entries))


def sweep_conjecture(shape: ParabolicShape, budget: int = 2000):
    """Resolve every constant class of the shape, certified or zero.

    Complete flags go through the modified-partition classes; Gr(1, n) and
    Gr(2, n) through their reduction calculi.  Other shapes are not covered.
    """
    if shape.is_complete():
        return sweep_complete_flag(shape.n, budget=budget)
    if shape.is_grassmannian() and shape.cuts[0] == 1:
        return sweep_gr1(shape.n, budget=budget)
    if shape.is_grassmannian() and shape.cuts[0] == 2:
        return sweep_gr2(shape.n, budget=budget)
    raise UnsupportedShapeError(
        f"sweeps cover complete flags, Gr(1,n) and Gr(2,n); got {shape}"
    )


# -- certificate store -------------------------------------------------------------


def store_append(path: str, cert: Certificate):
    """Append a certificate to a JSONL store, writing the schema header on
    first use.  A store holds one shape: a certificate of another shape is
    refused with an InputError.  A path that cannot be read or opened raises
    OSError before anything is written."""
    header_needed = not os.path.exists(path) or os.path.getsize(path) == 0
    if not header_needed:
        header, _ = store_read(path)
        if header["shape"] != str(cert.shape):
            raise InputError(
                f"store {path} holds shape {header['shape']}, not {cert.shape}"
            )
    with open(path, "a", encoding="utf-8") as fh:
        if header_needed:
            fh.write(json.dumps({
                "schema": 1,
                "shape": str(cert.shape),
                "lambda_blocks": cert.shape.k + 1,
                "version": __version__,
            }) + "\n")
        fh.write(json.dumps(cert.to_json()) + "\n")


def store_read(path: str) -> tuple[dict, list[dict]]:
    """The header and the certificate rows of a store; a file that is not
    UTF-8 JSON lines under a schema-1 header raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:  # not UTF-8, or a line that is not JSON
        raise InputError(f"{path} is not a certificate store: {exc}") from exc
    if not lines or not isinstance(lines[0], dict) or lines[0].get("schema") != 1:
        raise InputError(f"{path} is not a schema-1 certificate store")
    return lines[0], lines[1:]
