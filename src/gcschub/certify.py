"""Transversality certificates: evaluate candidate translation tuples,
search over them, and sweep whole families of structure constants.

A certificate for (v_1..v_{m+1}, w) with translations (u_1..u_{m+1}) is
valid when the intersection S of the divisor facet unions of the u_i X^{v_i}
and of X_w collapses to finitely many polytope vertices, all lying on the
flag variety; the constant then equals the vertex count, which the engine
always cross-checks against the structure-constant oracle.

S is decided on vertex bitsets.  A piece is one row: the AND of the vertex
bitsets of its divisors, each the union of the facets on its path, and
the set of their masks of facet pair bits (``Polytope.piece``).  The
vertices of S are the AND of the rows, and S is finite unless it holds an
edge, whose vertices a and b lie in S.  The smallest face holding a and b
has tight mask m_a & m_b; a face inside a union of finitely many faces
lies in one of them, so that face lies in S exactly when m_a & m_b meets
every divisor mask.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache

from . import __version__
from .coeffs import build_modified_partition, structure_constant
from .gc_polytope import Face, Polytope
from .ladder import LadderDiagram
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

MAX_GR2_N = 16
"""The largest n that ``sweep_gr2`` takes.  On one core of a 2-core Xeon
under CPython 3.11.7, Gr(2,15) has 20,832 entries and took 1.8-2.0 s, and
Gr(2,16) has 28,764 and took 3.9-4.7 s, each in a fresh process; the
reduced pairs live in Gr(d+2, n), whose polytopes grow with n, and
Gr(2,20) outgrew a 2 GB address-space limit after 18 s."""


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
    Each piece depends on (u, v) alone: its row is read through
    ``poly.piece``, which builds it once per polytope.
    The vertices are listed first, so a shape with more vertices than
    ``gc_polytope.MAX_VERTICES`` raises UnsupportedShapeError from the
    count, before any piece is built.
    """
    shape = poly.shape
    _check_inputs(poly, vs, w, us)
    w0 = longest_element(poly.n)
    pieces = [(w0, min_coset_rep(w0 * w, shape))] + list(zip(us, vs))
    inter = poly.vertex_bitsets()[0]
    masks: set[int] = set()
    for u, v in pieces:
        row = poly.piece(u, v)
        inter &= row[0]
        masks |= row[1]

    oracle = structure_constant(list(vs), w)
    # the pair scan reads tight masks; faces are built only for the two
    # vertices it names, or for the vertices of a certificate
    tight = poly.vertex_masks_in(inter)
    pair = _pair_on_one_face(tight, masks)
    if pair is not None:
        a, b = (Face(poly, tight[i]).values for i in pair)
        return EvaluationFailure(
            "positive_dimension",
            f"vertices {a} and {b} span a face inside the intersection",
        )
    verts = [Face(poly, m) for m in tight]
    try:
        outside = [v for v in verts if not poly.in_VX(v)]
    except UnsupportedShapeError as exc:
        return EvaluationFailure("unsupported_shape", str(exc))
    if outside:
        return EvaluationFailure(
            "vertex_outside_flag", f"vertex {outside[0].values} not on the flag variety"
        )
    count = len(verts)
    status = "certified" if count == oracle else "mismatch"
    return Certificate(shape, tuple(vs), w, tuple(us), tuple(verts), count, oracle, status)


def _check_inputs(poly: Polytope, vs, w: Permutation, us) -> None:
    """Raise InputError unless every permutation has the polytope's rank,
    there is one translation per factor, the factors and w are minimal
    coset representatives, and the factor lengths add up to w's."""
    for x in list(vs) + [w] + list(us):
        if x.n != poly.n:
            raise InputError(f"{x} is not a permutation of rank {poly.n}")
    if len(us) != len(vs):
        raise InputError(f"need one translation per factor: {len(us)} vs {len(vs)}")
    for x in list(vs) + [w]:
        if not poly.shape.in_min_coset_reps(x):
            raise InputError(f"{x} is not a minimal coset representative for {poly.shape}")
    if sum(length(v) for v in vs) != length(w):
        raise InputError("lengths of the factors must add up to the length of w")


def _pair_on_one_face(tight: list[int], masks) -> tuple[int, int] | None:
    """The indices i < j of two vertices, given by their tight masks, whose
    common tight bits meet every divisor mask, the lowest i first and then
    its lowest j; None when no two do."""
    for i, a in enumerate(tight):
        for j in range(i + 1, len(tight)):
            common = a & tight[j]
            if all(common & m for m in masks):
                return i, j
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


def _candidates(poly: Polytope, vs, tiers):
    """The translation tuples of the tiers in order, built one at a time,
    each with its tier-3 index, None in tiers 1 and 2.  Tier 1 moves one
    slot through S_n, the identity elsewhere, after the identity tuple;
    tier 2 moves one slot by the moves of ``_tier2``, skipping a tuple it
    has already yielded; tier 3 is every tuple in canonical order.  S_n is
    listed only once tier 1 or 3 is reached."""
    n, m1 = poly.n, len(vs)
    idt = Permutation.identity(n)
    for tier in tiers:
        if tier == 1:
            yield None, (idt,) * m1
            for slot in range(m1):
                for u in _all_perms(n)[1:]:  # the identity comes first
                    yield None, (idt,) * slot + (u,) + (idt,) * (m1 - 1 - slot)
        elif tier == 2:
            seen = set()
            for slot, u in _tier2(poly, vs):
                us = (u, idt) if slot == 0 else (idt, u)
                if us not in seen:
                    seen.add(us)
                    yield None, us
        else:
            yield from enumerate(itertools.product(_all_perms(n), repeat=m1))


def _tier2(poly: Polytope, vs):
    """Constructive moves (slot, translation) of a two-factor Grassmannian
    search: Chevalley, special pairs, cyclic shifts.  A factor that is not
    a minimal coset representative raises InputError."""
    shape = poly.shape
    if not shape.is_grassmannian() or len(vs) != 2:
        return
    n, m = poly.n, shape.cuts[0]
    parts = [partition_of_perm(v, m) for v in vs]
    one_box = tuple([1] + [0] * (m - 1))
    single_rows = all(sum(1 for p in part if p) <= 1 for part in parts)
    for i, j in ((0, 1), (1, 0)):
        # Chevalley: translate the divisor class by the partner
        if parts[i] == one_box:
            yield i, vs[j]
        # special pair (r, q): block shift on the r slot
        if single_rows:
            r, q = parts[i][0], parts[j][0]
            if r + q <= n - m:
                yield i, _block_shift(m, r, q, n)
    # cyclic-shift candidates for two-row shapes
    if m == 2:
        cyc = cyclic_shift(n)
        power = Permutation.identity(n)
        for _ in range(n):
            yield 0, power
            yield 1, power
            power = cyc * power


def _block_shift(m: int, r: int, q: int, n: int) -> Permutation:
    """The block shift of the special pair (r, q) on Gr(m, n): positions
    m..m+r-1 moved up by q, the Grassmannian permutation of (q^r) at level
    m+r-1.  Level 0 (m = 1, r = 0) moves nothing."""
    if m + r == 1:
        return Permutation.identity(n)
    return grassmannian_perm((q,) * r + (0,) * (m - 1), m + r - 1, n)


def search(
    poly: Polytope,
    vs: list[Permutation],
    w: Permutation,
    budget: int = 3000,
    tiers: tuple[int, ...] = (1, 2, 3),
) -> SearchResult:
    """Try translation tuples in deterministic order until a certificate
    appears or the budget runs out.  The tuples come from one lazy stream,
    ``_candidates``, so a tuple is built only when it is tried, and S_n is
    listed only by tiers 1 and 3.  Factors that fail the Bruhat test
    against w are settled by a single untranslated evaluation, at any
    budget, whose shadow comes out empty.  A tier other than 1, 2 and 3
    raises InputError before any evaluation, and so does bad input when
    no tuple is evaluated; a factor whose rank differs from w's raises
    InputError from the Bruhat test, under every tier order and budget."""
    unknown = [t for t in tiers if t not in (1, 2, 3)]
    if unknown:
        raise InputError(f"unknown search tiers {unknown}: the tiers are 1, 2 and 3")
    result = SearchResult()
    untranslated = (Permutation.identity(poly.n),) * len(vs)
    stream = _candidates(poly, vs, tiers)
    if any(not bruhat_leq(v, w) for v in vs):
        stream = itertools.chain([(None, untranslated)], stream)
        budget = max(budget, 1)  # tried at budget 0 too
    for index, us in stream:
        if index is not None:
            result.cursor = index
        if result.tried >= budget:
            break
        result.tried += 1
        res = evaluate(poly, vs, w, list(us))
        if isinstance(res, EvaluationFailure):
            result.failures[res.kind] = result.failures.get(res.kind, 0) + 1
        elif res.status == "mismatch":
            raise AssertionError(
                f"certificate mismatch for vs={vs} w={w} us={us}: "
                f"{res.count} vs oracle {res.oracle}"
            )
        else:
            result.certificate = res
            break
    if result.tried == 0:
        _check_inputs(poly, vs, w, untranslated)
    return result


# -- sweeps ---------------------------------------------------------------------


def _resolver(problem, budget: int, tiers: tuple[int, ...]):
    """The resolver of one sweep: ``resolve(keys, oracle, where)`` is an
    entry's (status, witness).  With no key the entry is zero, and an
    oracle other than 0 raises AssertionError.  Otherwise the keys are
    searched in order, each once per sweep, as search is deterministic;
    the first certificate's count must equal the entry's oracle, and with
    none the entry is unresolved.  ``problem(key)`` builds a key's
    (polytope, factors, target) on a miss only."""
    searched: dict[tuple, SearchResult] = {}

    def resolve(keys, oracle: int, where) -> tuple[str, Certificate | None]:
        if not keys:
            if oracle != 0:
                raise AssertionError(f"reduction says zero but oracle {oracle} at {where}")
            return "zero", None
        for key in keys:
            res = searched.get(key)
            if res is None:
                poly, vs, w = problem(key)
                res = searched[key] = search(poly, vs, w, budget=budget, tiers=tiers)
            if res.ok:
                if res.certificate.count != oracle:
                    raise AssertionError(
                        f"reduced certificate count {res.certificate.count} != oracle {oracle}"
                        f" at {where}"
                    )
                return "certified", res.certificate
        return "unresolved", None

    return resolve


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


def sweep_complete_flag(n: int, budget: int = 2000) -> SweepReport:
    """Partition the degree-compatible triples of S_n into constant classes
    and resolve each one: the merged zero class by the oracle, the rest by
    certificate search over the class members, split tuples included.  A
    certified class has one witness, carried to its other members by the
    partition's moves, which are not checked; the class constant check
    tells zero from nonzero only, as every nonzero two-factor constant of
    S_4 and S_5 is 1."""
    classes = build_modified_partition(n)
    shape = ParabolicShape.complete(n)
    poly = Polytope(LadderDiagram(shape))
    resolve = _resolver(lambda t: (poly, list(t[:-1]), t[-1]), budget, (1, 2, 3))
    reports = []
    for cls in classes:
        first = cls.members[0]
        constant = 0 if cls.kind == "zero" else structure_constant([first[0], first[1]], first[2])
        for (u, v, w) in cls.members:
            got = structure_constant([u, v], w)
            if got != constant:
                raise AssertionError(
                    f"class constant differs at {(u, v, w)}: {got} vs {constant}"
                )
        candidates: list[tuple] = [] if cls.kind == "zero" else sorted(
            cls.members, key=lambda t: (length(t[-1]), t)
        ) + sorted(cls.extended, key=lambda t: (length(t[-1]), len(t), t))
        kind, witness = resolve(candidates, constant, first)
        reports.append(ClassReport(kind, len(cls.members), first, witness))
    return SweepReport(shape, tuple(reports))


@dataclass(frozen=True)
class Gr2Report:
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


def _sweep_grassmannian(m: int, n: int, budget: int, tiers: tuple[int, ...]) -> Gr2Report:
    """Resolve the degree-compatible triples of the m x (n - m) box, m = 1
    or 2, in product order, each reduced to a problem (m2, lam2, mu2, eta2)
    in Gr(m2, n): itself at m = 1, ``reduce_gr2``'s special pair or none at
    m = 2."""
    parts = _box_partitions(m, n - m)
    # the partitions of each size, in the order of ``parts``, so that the
    # loop below meets the degree-compatible triples in product order
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for p in parts:
        by_size.setdefault(sum(p), []).append(p)
    polys: dict[int, Polytope] = {}
    # (partition, level) -> its Grassmannian permutation, built once per sweep
    perms: dict[tuple[tuple[int, ...], int], Permutation] = {}

    def perm(mu: tuple[int, ...], level: int = m) -> Permutation:
        if (mu, level) not in perms:
            perms[mu, level] = grassmannian_perm(mu, level, n)
        return perms[mu, level]

    def problem(red):
        m2, lam2, mu2, eta2 = red
        if m2 not in polys:
            polys[m2] = Polytope(LadderDiagram(ParabolicShape((m2,), n)))
        return polys[m2], [perm(lam2, m2), perm(mu2, m2)], perm(eta2, m2)

    resolve = _resolver(problem, budget, tiers)
    reduce = reduce_gr2 if m == 2 else lambda lam, mu, eta, n: (m, lam, mu, eta)
    triples = ((lam, mu, eta) for lam in parts for mu in parts
               for eta in by_size.get(sum(lam) + sum(mu), ()))
    entries = []
    for triple in triples:
        lam, mu, eta = triple
        oracle = structure_constant([perm(lam), perm(mu)], perm(eta))
        red = reduce(lam, mu, eta, n)
        status, _ = resolve(() if red is None else (red,), oracle, triple)
        entries.append({"triple": triple, "status": status, "N": oracle})
    return Gr2Report(tuple(entries))


def sweep_gr2(n: int, budget: int = 2000, tiers: tuple[int, ...] = (2, 1, 3)) -> Gr2Report:
    """Resolve every Gr(2, n) triple: reduce to a special pair and certify
    it with the block-shift construction, or establish zero.  A certified
    entry holds a certificate of the reduced special pair in Gr(d+2, n),
    not of the triple itself; every entry's N is its oracle value.

    The constructive tier alone suffices; the later tiers are a fallback.
    The sweep's resolver searches each reduced pair once and checks the
    certificate count against every entry's own oracle value.  An n above
    ``MAX_GR2_N`` raises UnsupportedShapeError before any work.
    """
    if n > MAX_GR2_N:
        raise UnsupportedShapeError(
            f"Gr(2,{n}) sweeps are not supported; at most n = {MAX_GR2_N} is swept"
        )
    return _sweep_grassmannian(2, n, budget, tiers)


def sweep_conjecture(shape: ParabolicShape, budget: int = 2000):
    """Resolve every constant class of the shape, certified or zero.

    Complete flags search the members and split tuples of each
    modified-partition class; Gr(1, n) and Gr(2, n) share one loop over
    triples, reduced to themselves on Gr(1, n) and to special pairs on
    Gr(2, n).  Each sweep searches a distinct problem once.  Other shapes
    are not covered.
    """
    if shape.is_complete():
        return sweep_complete_flag(shape.n, budget=budget)
    if shape.is_grassmannian() and shape.cuts[0] == 1:
        return _sweep_grassmannian(1, shape.n, budget, (2, 1, 3))
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
