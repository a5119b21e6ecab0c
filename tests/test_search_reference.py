"""Differential tests of ``certify.search``, one lazy stream of translation
tuples in one loop, against the search it replaced
(``reference_search.search``): both must return the same ``SearchResult``
on every degree-compatible two-factor triple of a few small shapes, under
tier orders and budgets that stop it in every tier, on a certificate and
on an exhausted budget."""

import itertools

import pytest

import reference_search
from gcschub.certify import _all_perms, search
from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import ParabolicShape, Permutation, grassmannian_perm, length

RUNS = [((1, 2, 3), 40), ((2, 1, 3), 40), ((2,), 3000), ((3,), 7), ((3, 1), 30),
        ((2, 1), 5), ((1,), 0)]


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


def outcome(res) -> tuple:
    """Everything a caller reads off a search result."""
    cert = res.certificate
    found = None if cert is None else (
        cert.us, [v.values for v in cert.vertices], cert.count, cert.status)
    return found, res.tried, res.cursor, res.failures


# every stride-th triple of the shape, so that the test stays small
@pytest.mark.parametrize("cuts_n, stride", [
    ((2, 5), 1), ((1, 4), 1), ((3, 6), 5), ((1, 2, 3, 4), 8), ((1, 3, 5), 16),
], ids=str)
def test_search_matches_reference(cuts_n, stride):
    poly = make(*cuts_n)
    reps = [p for p in map(Permutation, itertools.permutations(range(1, poly.n + 1)))
            if poly.shape.in_min_coset_reps(p)]
    triples = [(a, b, w) for a, b, w in itertools.product(reps, repeat=3)
               if length(a) + length(b) == length(w)][::stride]
    seen = set()
    for (a, b, w), (tiers, budget) in itertools.product(triples, RUNS):
        got = outcome(search(poly, [a, b], w, budget=budget, tiers=tiers))
        expected = outcome(reference_search.search(poly, [a, b], w, budget=budget, tiers=tiers))
        assert got == expected, (a, b, w, tiers, budget)
        seen.add((got[0] is not None, got[2] > 0))
    # certificates and exhausted budgets, in tier 3 and before it
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_tier2_search_lists_no_permutation_group():
    # tier 2 builds its candidates from the factors alone; S_n is listed
    # only once tier 1 or 3 is reached, certified or not
    _all_perms.cache_clear()
    one = grassmannian_perm((1, 0), 2, 5)
    res = search(make(2, 5), [one, one], grassmannian_perm((1, 1), 2, 5), tiers=(2,))
    assert res.ok
    res = search(make(3, 6), [grassmannian_perm((2, 1, 0), 3, 6), grassmannian_perm((1, 1, 0), 3, 6)],
                 grassmannian_perm((3, 2, 0), 3, 6), tiers=(2,))
    assert res.tried == 0 and not res.ok
    assert _all_perms.cache_info().currsize == 0
    search(make(2, 5), [one, one], grassmannian_perm((1, 1), 2, 5), tiers=(1,))
    assert _all_perms.cache_info().currsize == 1
