import itertools
import json

import pytest

from gcschub import certify
from gcschub.certify import (
    Certificate,
    EvaluationFailure,
    _all_perms,
    _block_shift,
    evaluate,
    reduce_gr2,
    search,
    store_append,
    store_read,
    sweep_complete_flag,
    sweep_conjecture,
    sweep_gr2,
)
from gcschub.coeffs import build_modified_partition, structure_constant
from gcschub.gc_polytope import Polytope
from gcschub.kogan import enumerate_reduced
from gcschub.ladder import LadderDiagram
from gcschub.weyl import (
    InputError,
    ParabolicShape,
    Permutation,
    UnsupportedShapeError,
    bruhat_leq,
    compose,
    grassmannian_perm,
    length,
    longest_element,
    min_coset_rep,
    parse_permutation,
)
import reference_search
from paper_checks import vertices_with_target_translation
from reference_faces import delta_uv_by_faces, delta_uv_paths, divisor_row, piece_table, vertex_bits


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


GR24 = make(2, 4)
GR25 = make(2, 5)


def s(i, n):
    return Permutation.transposition(i, n)


class TestEvaluate:
    def test_chevalley_point(self):
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        cert = evaluate(GR24, [one, one], eta, [one, Permutation.identity(4)])
        assert isinstance(cert, Certificate)
        assert cert.ok and cert.count == 1 == cert.oracle
        assert len(cert.vertices) == 1

    def test_target_and_equal_factor_share_one_piece(self):
        # X_w = w_0 X^{pi(w_0 w)}: the target piece is kept under the pair
        # (w_0, pi(w_0 w)) like every factor, a factor equal to it shares
        # its entry, and two pieces with one u and two v's are two entries,
        # each the reference row of its pair
        poly = make(2, 4)
        idt = Permutation.identity(4)
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        w0 = longest_element(4)
        rep = min_coset_rep(w0 * eta, poly.shape)
        evaluate(poly, [one, one], eta, [one, idt])
        bottom = (w0.window, rep.window)
        assert set(piece_table(poly)) == {bottom, (one.window, one.window),
                                          (idt.window, one.window)}
        evaluate(poly, [rep, idt], eta, [w0, idt])
        assert set(piece_table(poly)) == {bottom, (one.window, one.window),
                                          (idt.window, one.window), (idt.window, idt.window)}
        for (uw, vw), row in piece_table(poly).items():
            u, v = Permutation(uw), Permutation(vw)
            assert row == divisor_row(poly, delta_uv_paths(poly, u, v)), (uw, vw)

    @pytest.mark.parametrize("cuts_n, vs, w", [
        ((2, 5), ["13245", "13245"], "14235"),
        ((3, 6), ["124356", "124356"], "125346"),
        ((1, 2, 3, 4), ["1243", "1342"], "2341"),
        ((1, 3, 5), ["12435", "12435"], "12534"),
    ], ids=["gr25", "gr36", "fl4", "shape135"])
    def test_every_piece_cached_under_its_pair(self, cuts_n, vs, w):
        # after one search, each entry is the row of u's image of the
        # divisors of X^v, built here from the reference vanishing set of
        # v: the AND of their vertex bitsets, which is the vertex set of the
        # reference fold, and the set of their masks; on shape 1,3,5 no
        # tuple within the budget certifies, so the search tries all 40
        poly = make(*cuts_n)
        n = poly.n
        search(poly, [parse_permutation(v, n) for v in vs], parse_permutation(w, n), budget=40)
        table = piece_table(poly)
        assert len(table) >= 5
        for (uw, vw), row in table.items():
            u, v = Permutation(uw), Permutation(vw)
            assert row == divisor_row(poly, delta_uv_paths(poly, u, v)), (uw, vw)
            assert row[0] == vertex_bits(poly, delta_uv_by_faces(poly, u, v)), (uw, vw)

    def test_empty_intersection_is_zero_certificate(self):
        n = 5
        cyc = Permutation(tuple(list(range(2, n + 1)) + [1]))
        v1 = grassmannian_perm((1, 1), 2, n)
        vmu = grassmannian_perm((1, 0), 2, n)
        weta = grassmannian_perm((3, 0), 2, n)
        # eta - mu = (2, 0): shifting the one-one factor by the mu_2-th cycle
        # power empties the intersection, certifying the zero constant
        for mu in [(1, 0), (1, 1)]:
            vmu = grassmannian_perm(mu, 2, n)
            weta = grassmannian_perm((mu[0] + 2, mu[1]), 2, n)
            shift = Permutation.identity(n)
            for _ in range(mu[1]):
                shift = cyc * shift
            cert = evaluate(GR25, [v1, vmu], weta, [shift, Permutation.identity(n)])
            assert isinstance(cert, Certificate)
            assert cert.ok and cert.count == 0 == cert.oracle

    @pytest.mark.parametrize(
        "factor, translation",
        [
            (None, Permutation((2, 1, 3))),
            (None, Permutation((2, 1, 3, 4, 5))),
            (Permutation((1, 3, 2)), None),
        ],
    )
    def test_other_rank_rejected(self, factor, translation):
        # a translation of another rank used to certify, and a factor of
        # another rank raised IndexError in the coset test
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        vs = [one, factor or one]
        us = [one, translation or Permutation.identity(4)]
        with pytest.raises(ValueError, match="rank 4"):
            evaluate(GR24, vs, eta, us)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(GR24, [s(2, 4)], s(2, 4).right_mul_s(3), [Permutation.identity(4)])

    def test_not_coset_rep_rejected(self):
        with pytest.raises(ValueError):
            evaluate(GR24, [s(1, 4)], s(1, 4), [Permutation.identity(4)])

    def test_positive_dimension_reported(self):
        # both factors untranslated: the self-intersection shadow is fat
        mu = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((2, 0), 2, 4)
        res = evaluate(GR24, [mu, mu], eta, [Permutation.identity(4)] * 2)
        assert isinstance(res, EvaluationFailure)
        assert res.kind == "positive_dimension"

    def test_unsupported_shape_flagged(self):
        # V^X is only characterized for Grassmannians and complete flags, so
        # a two-step shape must report that distinctly once vertices appear
        mixed = make(1, 3, 4)
        v = Permutation((2, 1, 3, 4))  # in W^P for cuts (1,3)
        res = evaluate(mixed, [v, Permutation.identity(4)], v, [Permutation.identity(4)] * 2)
        assert isinstance(res, EvaluationFailure)
        assert res.kind in ("unsupported_shape", "positive_dimension")

    def test_flagship_gr36_as_fl6(self):
        fl6 = make(1, 2, 3, 4, 5, 6)
        v = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
        w = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)
        ut = Permutation((2, 3, 1, 4, 5, 6))
        vt = Permutation((1, 4, 5, 6, 2, 3))
        cert = evaluate(fl6, [s(2, 6), s(4, 6), v], w, [ut, vt, Permutation.identity(6)])
        assert isinstance(cert, Certificate)
        assert cert.ok
        assert cert.count == 2 == cert.oracle
        assert all(fl6.is_regular(x) for x in cert.vertices)

    def test_vertices_sorted_by_values(self):
        # the meet returns its faces in mask order and the certificate lists
        # its vertices in the order of their values; with the flagship's
        # translations the two orders agree, with the second tuple they
        # differ
        fl6 = make(1, 2, 3, 4, 5, 6)
        v = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
        w = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)
        flagship = [Permutation((2, 3, 1, 4, 5, 6)), Permutation((1, 4, 5, 6, 2, 3)),
                    Permutation.identity(6)]
        other = [Permutation((3, 1, 2, 6, 5, 4)), Permutation((5, 6, 2, 4, 1, 3)),
                 Permutation((1, 2, 3, 4, 6, 5))]
        for us, mask_order_differs in ((flagship, False), (other, True)):
            cert = evaluate(fl6, [s(2, 6), s(4, 6), v], w, us)
            assert cert.ok and len(cert.vertices) == 2
            values = [x.values for x in cert.vertices]
            assert values == sorted(values)
            assert (cert.vertices != tuple(sorted(cert.vertices))) == mask_order_differs


class TestSearch:
    def test_pre_check_zero(self):
        # Bruhat-incompatible: one untranslated evaluation settles it
        v = grassmannian_perm((2, 0), 2, 4)
        w = grassmannian_perm((1, 1), 2, 4)
        vs = [v, Permutation.identity(4)]
        res = search(GR24, vs, w)
        assert res.ok and res.certificate.count == 0
        assert res.tried == 1
        assert res.certificate.vertices == ()

    def test_chevalley_found_at_tier2(self):
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        res = search(GR24, [one, one], eta, tiers=(2,))
        assert res.ok and res.tried <= 4
        assert res.cursor == 0  # tier 3 never reached

    def test_special_found_at_tier2(self):
        vr = grassmannian_perm((2, 0), 2, 5)
        vq = grassmannian_perm((1, 0), 2, 5)
        wt = grassmannian_perm((3, 0), 2, 5)
        res = search(GR25, [vr, vq], wt, tiers=(2,))
        assert res.ok and res.certificate.count == 1

    def test_block_shift_matches_window(self):
        # the block shift against the window it replaced: columns m..m+r-1
        # take col + q, the rest follows in increasing order
        cases = 0
        for n in range(2, 11):
            for m in range(1, n):
                for r, q in itertools.product(range(n - m + 1), repeat=2):
                    if r + q > n - m:
                        continue
                    window = list(range(1, n + 1))
                    for col in range(m, m + r):
                        window[col - 1] = col + q
                    used = set(window[:m + r - 1])
                    rest = [x for x in range(1, n + 1) if x not in used]
                    expected = Permutation(tuple(window[:m + r - 1] + rest))
                    assert _block_shift(m, r, q, n) == expected, (m, r, q, n)
                    cases += 1
        assert cases == 705

    def test_budget_exhaustion_reports_cursor(self):
        mu = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((2, 0), 2, 4)
        # tier 3 certifies at its third tuple, index 2
        res = search(GR24, [mu, mu], eta, budget=2, tiers=(3,))
        assert not res.ok and res.certificate is None
        assert res.tried == 2
        assert res.cursor == 2
        assert res.failures == {"positive_dimension": 2}
        res = search(GR24, [mu, mu], eta, budget=3, tiers=(3,))
        assert res.ok and res.tried == 3

    def test_deterministic(self):
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        a = search(GR24, [one, one], eta)
        b = search(GR24, [one, one], eta)
        assert a.certificate.us == b.certificate.us

    @pytest.mark.parametrize("tiers", [(4,), (1, 4), (0, 2)])
    def test_unknown_tier_rejected_before_any_evaluation(self, tiers):
        # an unknown tier is an input error, not an empty search; the
        # polytope's piece cache stays empty, so nothing was evaluated
        poly = make(2, 4)
        v = Permutation((1, 3, 2, 4))
        with pytest.raises(InputError, match="unknown search tiers"):
            search(poly, [v, v], Permutation((2, 3, 1, 4)), tiers=tiers)
        assert piece_table(poly) == {}

    @pytest.mark.parametrize("tiers", [(2,), (1,), (3,), (2, 1, 3)])
    @pytest.mark.parametrize("cuts_n, vs, w", [
        # a factor that is not a coset representative, which tier 2 reads
        ((2, 4), ["2134", "2134"], "3412"),
        # a target that is not one, with no tier-2 candidate
        ((3, 6), ["135246", "134256"], "654321"),
        # lengths that do not add up, on a shape with no tier 2
        ((1, 2, 3, 4), ["2134"], "4321"),
    ], ids=["gr24-factor", "gr36-target", "fl4-lengths"])
    def test_bad_input_rejected_by_every_tier(self, cuts_n, vs, w, tiers):
        # evaluate's input checks hold for a search that evaluates no
        # tuple too: nothing enters the piece cache
        poly = make(*cuts_n)
        n = poly.n
        with pytest.raises(InputError):
            search(poly, [parse_permutation(v, n) for v in vs], parse_permutation(w, n), tiers=tiers)
        assert piece_table(poly) == {}

    @pytest.mark.parametrize("budget", [3000, 0])
    @pytest.mark.parametrize("tiers", [(1,), (2,), (3,), (2, 1, 3)])
    @pytest.mark.parametrize("factor", [Permutation((2, 1, 3)), Permutation((1, 2, 4, 3, 5))],
                             ids=["rank3", "rank5"])
    def test_factor_of_another_rank_is_input_error(self, factor, tiers, budget):
        # the Bruhat test of the factors against w sees the rank first, under
        # every tier order and at budget 0 too
        poly = make(2, 4)
        one = grassmannian_perm((1, 0), 2, 4)
        with pytest.raises(InputError, match="rank mismatch"):
            search(poly, [one, factor], grassmannian_perm((1, 1), 2, 4), budget=budget, tiers=tiers)
        assert piece_table(poly) == {}


@pytest.mark.parametrize("call", [
    lambda p: compose(p, Permutation.identity(4)),
    lambda p: bruhat_leq(p, Permutation.identity(4)),
    lambda p: min_coset_rep(p, ParabolicShape((2,), 4)),
    lambda p: structure_constant([p], Permutation.identity(4)),
    lambda p: enumerate_reduced(LadderDiagram(ParabolicShape.complete(4)), p, False),
], ids=["compose", "bruhat_leq", "min_coset_rep", "structure_constant", "enumerate_reduced"])
def test_rank_mismatch_is_input_error(call):
    # a rank mismatch is bad input, which the CLI answers with exit 2
    with pytest.raises(InputError, match="rank"):
        call(Permutation((2, 1, 3)))


class TestChevalleySweeps:
    @pytest.mark.parametrize(
        "m,n",
        [(m, n) for n in range(3, 8) for m in range(1, n - 1)],
    )
    def test_every_chevalley_triple_certifies(self, m, n):
        poly = make(m, n)
        one = tuple([1] + [0] * (m - 1))
        from gcschub.coeffs import chevalley

        def box_parts():
            for combo in itertools.product(range(n - m + 1), repeat=m):
                if all(a >= b for a, b in zip(combo, combo[1:])):
                    yield combo

        for mu in box_parts():
            for eta, _ in chevalley(mu, m, n):
                vs = [grassmannian_perm(one, m, n), grassmannian_perm(mu, m, n)]
                w = grassmannian_perm(eta, m, n)
                res = search(poly, vs, w, tiers=(2,))
                assert res.ok and res.certificate.count == 1, (m, n, mu, eta)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_gr1_sweep_certifies_every_triple(self, n):
        # every triple (a, b, a + b) with a + b <= n - 1 has constant 1;
        # n starts at 3, as the shape (1) of rank 2 is a complete flag
        report = sweep_conjecture(ParabolicShape((1,), n))
        assert len(report.entries) == n * (n + 1) // 2 and report.all_resolved
        for e in report.entries:
            assert (e["status"], e["N"]) == ("certified", 1), e


class TestGr2Reduction:
    def test_reduce_examples(self):
        # |eta| = 3 is not |lam| + |mu| = 2
        assert reduce_gr2((1, 0), (1, 0), (2, 1), 5) is None
        red = reduce_gr2((2, 1), (1, 1), (3, 2), 5)
        assert red is not None
        m2, lam2, mu2, eta2 = red
        assert lam2[0] + mu2[0] == eta2[0]

    @pytest.mark.parametrize("lam, mu, eta", [
        ((1, 1), (1, 0), (3, 0)),  # d = -1: eta holds less than the common (1,1)
        ((2, 0), (0, 0), (1, 1)),  # c = 1 < max(a, b) = 2
    ])
    def test_degree_compatible_zero(self, lam, mu, eta):
        # an in-box eta has c <= eta[0] <= n - 2, so these zeros come from
        # the other two conditions
        n = 5
        assert sum(eta) == sum(lam) + sum(mu)
        assert reduce_gr2(lam, mu, eta, n) is None
        vs = [grassmannian_perm(lam, 2, n), grassmannian_perm(mu, 2, n)]
        assert structure_constant(vs, grassmannian_perm(eta, 2, n)) == 0

    def test_reduction_preserves_constant(self):
        n = 5
        parts = [
            c
            for c in itertools.product(range(n - 1), repeat=2)
            if c[0] >= c[1] and c[0] <= n - 2
        ]
        for lam, mu, eta in itertools.product(parts, repeat=3):
            if sum(eta) != sum(lam) + sum(mu):
                continue
            original = structure_constant(
                [grassmannian_perm(lam, 2, n), grassmannian_perm(mu, 2, n)],
                grassmannian_perm(eta, 2, n),
            )
            red = reduce_gr2(lam, mu, eta, n)
            if red is None:
                assert original == 0, (lam, mu, eta)
                continue
            m2, lam2, mu2, eta2 = red
            reduced = structure_constant(
                [grassmannian_perm(lam2, m2, n), grassmannian_perm(mu2, m2, n)],
                grassmannian_perm(eta2, m2, n),
            )
            assert reduced == original, (lam, mu, eta, red)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sweep_gr2_resolves(self, n):
        rep = sweep_gr2(n)
        assert rep.all_resolved
        for e in rep.entries:
            assert e["status"] in ("certified", "zero")

    def test_sweep_gr2_above_the_bound_is_refused_before_any_work(self, monkeypatch):
        # the sweep's first work is listing the partitions; n = MAX_GR2_N
        # reaches it and one more does not
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(certify, "_box_partitions", started)
        with pytest.raises(UnsupportedShapeError, match=str(certify.MAX_GR2_N)):
            sweep_gr2(certify.MAX_GR2_N + 1)
        with pytest.raises(Started):
            sweep_gr2(certify.MAX_GR2_N)


def gr2_triples(n):
    """The degree-compatible Gr(2, n) triples in the sweep's order."""
    parts = [p for p in itertools.product(range(n - 1), repeat=2) if p[0] >= p[1]]
    return [(lam, mu, eta) for lam, mu, eta in itertools.product(parts, repeat=3)
            if sum(eta) == sum(lam) + sum(mu)]


def count_searches(monkeypatch, search_with=search):
    """Route the sweep's searches through ``search_with`` and list the
    (shape, factor windows, target window) of each call."""
    calls = []

    def counted(poly, vs, w, **kwargs):
        calls.append((str(poly.shape), tuple(v.window for v in vs), w.window))
        return search_with(poly, vs, w, **kwargs)

    monkeypatch.setattr(certify, "search", counted)
    return calls


class TestGr2SweepMemo:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_entries_match_the_reference_sweep(self, n):
        assert list(sweep_gr2(n).entries) == reference_search.sweep_gr2(n)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_each_reduced_pair_is_searched_once(self, n, monkeypatch):
        calls = count_searches(monkeypatch)
        reduced = {reduce_gr2(*t, n) for t in gr2_triples(n)} - {None}
        assert sweep_gr2(n).all_resolved
        assert len(calls) == len(set(calls)) == len(reduced)
        if n == 8:
            assert len(calls) == 83

    def test_the_memo_keys_the_whole_reduced_problem(self, monkeypatch):
        # the real reduction fixes the target by the factors, as
        # c - d = (a - d) + (b - d); this one lets it vary, and two
        # problems with equal rank and factors but different targets
        # are two searches
        n = 6
        real = certify.reduce_gr2

        def reduce(lam, mu, eta, n):
            red = real(lam, mu, eta, n)
            if red is None or lam[1] == 0:
                return red
            m2, lam2, mu2, _ = red
            return m2, lam2, mu2, (0,) * m2

        monkeypatch.setattr(certify, "reduce_gr2", reduce)
        calls = count_searches(monkeypatch, lambda *args, **kwargs: certify.SearchResult())
        reduced = {reduce(*t, n) for t in gr2_triples(n)} - {None}
        assert len({red[:3] for red in reduced}) < len(reduced)
        sweep_gr2(n)
        assert len(calls) == len(set(calls)) == len(reduced)

    def test_an_entry_met_again_checks_its_own_oracle(self, monkeypatch):
        # the first two-row triple whose reduced pair an earlier entry has
        # searched; the sweep's oracle is off by one on it alone
        n = 5
        seen, target = set(), None
        for t in gr2_triples(n):
            red = reduce_gr2(*t, n)
            if red in seen and t[0][1] > 0:
                target = t
                break
            seen.add(red)
        assert target is not None
        lam, mu, eta = target
        args = ([grassmannian_perm(lam, 2, n).window, grassmannian_perm(mu, 2, n).window],
                grassmannian_perm(eta, 2, n).window)

        def off_by_one(vs, w):
            got = structure_constant(vs, w)
            return got + 1 if ([v.window for v in vs], w.window) == args else got

        monkeypatch.setattr(certify, "structure_constant", off_by_one)
        with pytest.raises(AssertionError, match="reduced certificate count"):
            sweep_gr2(n)


class TestFlagSweep:
    def test_fl3_sweep(self):
        rep = sweep_complete_flag(3)
        assert rep.all_resolved

    def test_fl4_sweep_resolves_all_classes(self):
        rep = sweep_complete_flag(4)
        assert rep.all_resolved
        kinds = {c.kind for c in rep.classes}
        assert kinds <= {"zero", "certified"}
        assert sum(c.size for c in rep.classes) == 1115

    def test_fl5_sweep(self):
        rep = sweep_complete_flag(5)
        assert rep.all_resolved
        assert sorted(c.kind for c in rep.classes) == ["certified", "zero"]
        assert sum(c.size for c in rep.classes) == 74199


class TestSweepResolver:
    """Every sweep resolves its entries through one memoised resolver; the
    reference sweeps in ``reference_search`` are the loops it replaced."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_gr1_entries_match_the_reference_sweep(self, n):
        report = sweep_conjecture(ParabolicShape((1,), n))
        assert list(report.entries) == reference_search.sweep_gr1(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_class_reports_match_the_reference_sweep(self, n):
        def plain(reports):
            return [(c.kind, c.size, c.representative, c.witness and c.witness.to_json())
                    for c in reports]

        assert plain(sweep_complete_flag(n).classes) == plain(reference_search.sweep_complete_flag(n))

    def test_a_class_goes_on_to_its_next_candidate(self, monkeypatch):
        # the first candidate of the nonzero Fl3 class finds nothing, and
        # the second one, the next member by target length, certifies it
        def first_fails(poly, vs, w, **kwargs):
            return certify.SearchResult() if len(calls) == 1 else search(poly, vs, w, **kwargs)

        calls = count_searches(monkeypatch, first_fails)
        (cls,) = [c for c in build_modified_partition(3) if c.kind == "regular"]
        second = sorted(cls.members, key=lambda t: (length(t[-1]), t))[1]
        report = sweep_complete_flag(3)
        assert len(calls) == 2
        (certified,) = [c for c in report.classes if c.kind != "zero"]
        assert certified.kind == "certified"
        assert (certified.witness.vs, certified.witness.w) == (second[:2], second[2])

    def test_an_unresolved_entry_keeps_its_oracle(self, monkeypatch):
        # no search in Gr(3, 5) certifies, so every entry reduced there is
        # left unresolved, and its N is still its own nonzero oracle value
        n = 5

        def none_in_gr35(poly, vs, w, **kwargs):
            if poly.shape.cuts == (3,):
                return certify.SearchResult()
            return search(poly, vs, w, **kwargs)

        count_searches(monkeypatch, none_in_gr35)
        report = sweep_gr2(n)
        assert not report.all_resolved
        unresolved = 0
        for e in report.entries:
            red = reduce_gr2(*e["triple"], n)
            lam, mu, eta = (grassmannian_perm(p, 2, n) for p in e["triple"])
            assert e["N"] == structure_constant([lam, mu], eta)
            if red is not None and red[0] == 3:
                assert e["status"] == "unresolved" and e["N"] > 0, e
                unresolved += 1
            else:
                assert e["status"] in ("certified", "zero"), e
        assert unresolved > 0

    def test_a_zero_reduction_of_a_nonzero_constant_raises(self, monkeypatch):
        monkeypatch.setattr(certify, "reduce_gr2", lambda lam, mu, eta, n: None)
        calls = count_searches(monkeypatch)
        with pytest.raises(AssertionError, match="reduction says zero"):
            sweep_gr2(4)
        assert calls == []


# the regular Fl4 members (v_1, v_2; w) that no translation of the factors
# certifies: each of the 623 tuples of a search leaves a face of positive
# dimension
FL4_UNCERTIFIED = {
    ((1, 3, 2, 4), (3, 2, 1, 4), (4, 2, 1, 3)),
    ((3, 2, 1, 4), (1, 3, 2, 4), (4, 2, 1, 3)),
    ((2, 1, 3, 4), (2, 1, 4, 3), (4, 1, 2, 3)),
    ((2, 1, 4, 3), (2, 1, 3, 4), (4, 1, 2, 3)),
    ((2, 3, 1, 4), (2, 3, 1, 4), (3, 4, 1, 2)),
}


class TestSweepMembers:
    """What a complete-flag sweep certifies, member by member.  The sweep
    certifies one witness per class and relies on the partition's moves to
    carry it to the other members; these tests search every member."""

    @staticmethod
    def regular_members(n):
        (cls,) = [c for c in build_modified_partition(n) if c.kind == "regular"]
        return cls.members

    def test_every_fl3_member_certifies(self):
        poly = make(1, 2, 3)
        members = self.regular_members(3)
        assert len(members) == 21
        for u, v, w in members:
            assert search(poly, [u, v], w).ok, (u, v, w)

    def test_fl4_members_but_five_certify(self):
        poly = make(1, 2, 3, 4)
        members = self.regular_members(4)
        assert len(members) == 303
        failed = set()
        for u, v, w in members:
            res = search(poly, [u, v], w)
            if not res.ok:
                assert res.tried == 623 and res.failures == {"positive_dimension": 623}
                failed.add((u.window, v.window, w.window))
        assert failed == FL4_UNCERTIFIED

    @pytest.mark.parametrize(
        "windows", sorted(FL4_UNCERTIFIED),
        ids=lambda t: "{},{};{}".format(*("".join(map(str, x)) for x in t)))
    def test_fl4_exception_certifies_with_untranslated_target(self, windows):
        # with the target piece X^{pi(w_0 w)} in place of w_0 X^{pi(w_0 w)},
        # some translation of the factors leaves finitely many vertices on
        # the flag variety, as many as the constant
        poly = make(1, 2, 3, 4)
        *vs, w = (Permutation(x) for x in windows)
        oracle = structure_constant(vs, w)
        idt = Permutation.identity(4)
        for us in itertools.product(_all_perms(4), repeat=2):
            verts = vertices_with_target_translation(poly, vs, w, list(us), idt)
            if verts is not None and all(poly.in_VX(v) for v in verts):
                assert len(verts) == oracle == 1, us
                return
        pytest.fail("no translation certifies")

    @pytest.mark.parametrize("n, regular", [(4, 303), (5, 8331)])
    def test_nonzero_two_factor_constants_are_one(self, n, regular):
        # so the "class constant differs" check of sweep_complete_flag can
        # only tell zero from nonzero for n <= 5: it cannot catch a move
        # that merges two nonzero classes wrongly
        by_length: dict[int, list[Permutation]] = {}
        for p in _all_perms(n):
            by_length.setdefault(length(p), []).append(p)
        nonzero = 0
        for u, v in itertools.product(_all_perms(n), repeat=2):
            for w in by_length.get(length(u) + length(v), ()):
                c = structure_constant([u, v], w)
                assert c in (0, 1), (u, v, w, c)
                nonzero += c
        assert nonzero == regular == len(self.regular_members(n))


class TestEngineInvariants:
    def test_monotone_fold(self):
        # intersecting with one more divisor union never raises any maximal
        # face's dimension
        from reference_faces import (
            antichain, divisor_facets, intersect, vanishing_schubert, whole_face)

        v = grassmannian_perm((2, 1), 2, 5)
        union = (whole_face(GR25),)
        last = whole_face(GR25).dim
        vs = vanishing_schubert(GR25.diagram, v)
        for path in [idx for level in sorted(vs) for idx in sorted(vs[level])]:
            facets = divisor_facets(GR25, path)
            union = antichain([intersect(GR25, f, g) for f in union for g in facets])
            top = max((f.dim for f in union), default=-1)
            assert top <= last
            last = top

    def test_swap_invariance(self):
        # swapping the translation-factor pairs is a geometric symmetry
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        idt = Permutation.identity(4)
        a = evaluate(GR24, [one, one], eta, [one, idt])
        b = evaluate(GR24, [one, one], eta, [idt, one])
        assert a.vertices == b.vertices and a.count == b.count


class TestSweepConjectureFacade:
    def test_dispatch(self):
        from gcschub.certify import sweep_conjecture
        from gcschub.gc_polytope import UnsupportedShapeError

        assert sweep_conjecture(ParabolicShape((1, 2), 3)).all_resolved
        assert sweep_conjecture(ParabolicShape((1,), 3)).all_resolved
        assert sweep_conjecture(ParabolicShape((2,), 4)).all_resolved
        with pytest.raises(UnsupportedShapeError):
            sweep_conjecture(ParabolicShape((1, 3), 4))


class TestStore:
    def test_round_trip(self, tmp_path):
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        cert = evaluate(GR24, [one, one], eta, [one, Permutation.identity(4)])
        path = tmp_path / "certs.jsonl"
        store_append(str(path), cert)
        store_append(str(path), cert)
        header, rows = store_read(str(path))
        assert header["schema"] == 1 and header["shape"] == "2,4"
        assert len(rows) == 2
        assert rows[0] == cert.to_json()
        assert json.loads(json.dumps(rows[0])) == rows[0]

    def test_append_refuses_other_shape(self, tmp_path):
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        cert = evaluate(GR24, [one, one], eta, [one, Permutation.identity(4)])
        line = grassmannian_perm((1,), 1, 3)
        other = search(make(1, 3), [line, line], grassmannian_perm((2,), 1, 3)).certificate
        assert other is not None and str(other.shape) != str(cert.shape)
        path = tmp_path / "certs.jsonl"
        store_append(str(path), cert)
        with pytest.raises(ValueError):
            store_append(str(path), other)
        header, rows = store_read(str(path))
        assert header["shape"] == "2,4" and rows == [cert.to_json()]

    @pytest.mark.parametrize("text", ["", "\n", '{"schema": 2, "shape": "2,4"}\n', "[1]\n"])
    def test_read_rejects_missing_or_unknown_header(self, tmp_path, text):
        path = tmp_path / "certs.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError):
            store_read(str(path))
