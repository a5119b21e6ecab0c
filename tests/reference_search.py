"""The reference for ``gcschub.certify.search``.

The package walks one lazy stream of translation tuples in one loop
(``certify._candidates``).  This module keeps the search it replaced:
an ``attempt`` closure that evaluates one tuple, a ``candidates`` closure
over three tier helpers, a Bruhat pre-attempt written apart from the tier
loop, and a tier 2 that builds every candidate before the first is tried
and drops repeats with ``dict.fromkeys``.  Both must try the same tuples
in the same order and return the same ``SearchResult``.

It also keeps the sweeps that the package's one resolver replaced, each
its own loop with its own search and checks.  ``sweep_gr2`` visits every
triple of the partition cube, skips the degree-incompatible ones, and
searches every nonzero entry, however often its reduced pair recurs.
``sweep_gr1`` searches each Gr(1, n) triple (a, b, a + b) with tiers (2, 1)
at budget 500, and ``sweep_complete_flag`` searches the members and split
tuples of each class until one certifies.  Each must give the same entries
or class reports in the same order as the package.
"""

from __future__ import annotations

import itertools

from gcschub.certify import (
    Certificate,
    ClassReport,
    SearchResult,
    _all_perms,
    _block_shift,
    evaluate,
    reduce_gr2,
)
from gcschub.coeffs import build_modified_partition, structure_constant
from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import (
    InputError,
    ParabolicShape,
    Permutation,
    bruhat_leq,
    cyclic_shift,
    grassmannian_perm,
    length,
    partition_of_perm,
)


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
                        us = [idt, idt]
                        us[i] = _block_shift(m, r, q, n)
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


def sweep_gr2(n: int, budget: int = 2000, tiers: tuple[int, ...] = (2, 1, 3)) -> list[dict]:
    """The entries of the Gr(2, n) sweep, each nonzero one searched anew."""
    parts = [p for p in itertools.product(range(n - 1), repeat=2) if p[0] >= p[1]]
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
            assert oracle == 0, (lam, mu, eta)
            entries.append({"triple": (lam, mu, eta), "status": "zero", "N": 0})
            continue
        m2, lam2, mu2, eta2 = red
        if m2 not in polys:
            polys[m2] = Polytope(LadderDiagram(ParabolicShape((m2,), n)))
        vs = [grassmannian_perm(lam2, m2, n), grassmannian_perm(mu2, m2, n)]
        res = search(polys[m2], vs, grassmannian_perm(eta2, m2, n), budget=budget, tiers=tiers)
        if res.certificate is None:
            entries.append({"triple": (lam, mu, eta), "status": "unresolved", "N": oracle})
            continue
        assert res.certificate.count == oracle, (lam, mu, eta, red)
        entries.append({"triple": (lam, mu, eta), "status": "certified", "N": oracle})
    return entries


def sweep_gr1(n: int, budget: int = 500) -> list[dict]:
    """The entries of the Gr(1, n) sweep: every triple (a, b, a + b) with
    a + b <= n - 1 has constant 1 and is searched."""
    poly = Polytope(LadderDiagram(ParabolicShape((1,), n)))
    entries = []
    for a in range(n):
        for b in range(n):
            c = a + b
            if c > n - 1:
                continue
            vs = [grassmannian_perm((a,), 1, n), grassmannian_perm((b,), 1, n)]
            w = grassmannian_perm((c,), 1, n)
            res = search(poly, vs, w, budget=budget, tiers=(2, 1))
            status = "certified" if res.ok else "unresolved"
            entries.append({"triple": ((a,), (b,), (c,)), "status": status,
                            "N": res.certificate.count if res.ok else None})
    return entries


def sweep_complete_flag(n: int, budget: int = 2000) -> tuple[ClassReport, ...]:
    """The class reports of the complete-flag sweep: each class checked
    constant, and a nonzero one searched over its members, then its split
    tuples, until one certifies."""
    poly = Polytope(LadderDiagram(ParabolicShape.complete(n)))

    def resolve(cls) -> ClassReport:
        first = cls.members[0]
        constant = 0 if cls.kind == "zero" else structure_constant([first[0], first[1]], first[2])
        for (u, v, w) in cls.members:
            assert structure_constant([u, v], w) == constant, (u, v, w)
        if cls.kind == "zero":
            return ClassReport("zero", len(cls.members), first, None)
        witness = None
        candidates = sorted(cls.members, key=lambda t: (length(t[-1]), t)) + sorted(
            cls.extended, key=lambda t: (length(t[-1]), len(t), t))
        for *us_part, w in candidates:
            res = search(poly, list(us_part), w, budget=budget)
            if res.ok:
                witness = res.certificate
                break
        return ClassReport("certified" if witness else "unresolved", len(cls.members),
                           first, witness)

    return tuple(resolve(cls) for cls in build_modified_partition(n))
