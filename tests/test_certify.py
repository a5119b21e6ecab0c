import itertools
import json

import pytest

from gcschub.certify import (
    Certificate,
    EvaluationFailure,
    evaluate,
    reduce_gr2,
    search,
    store_append,
    store_read,
    sweep_complete_flag,
    sweep_gr2,
)
from gcschub.coeffs import structure_constant
from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import (
    InputError,
    ParabolicShape,
    Permutation,
    grassmannian_perm,
    longest_element,
    min_coset_rep,
)


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

    def test_every_piece_cached_under_its_pair(self):
        # X_w = w_0 X^{pi(w_0 w)}: the target piece is cached under the pair
        # (w_0, pi(w_0 w)) like every factor, and a factor equal to it
        # shares its entry
        poly = make(2, 4)
        idt = Permutation.identity(4)
        one = grassmannian_perm((1, 0), 2, 4)
        eta = grassmannian_perm((1, 1), 2, 4)
        w0 = longest_element(4)
        rep = min_coset_rep(w0 * eta, poly.shape)
        evaluate(poly, [one, one], eta, [one, idt])
        bottom = (w0.window, rep.window)
        assert set(poly.delta_cache) == {bottom, (one.window, one.window),
                                         (idt.window, one.window)}
        evaluate(poly, [rep, idt], eta, [w0, idt])
        assert set(poly.delta_cache) == {bottom, (one.window, one.window),
                                         (idt.window, one.window), (idt.window, idt.window)}

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
        assert poly.delta_cache == {}


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


class TestGr2Reduction:
    def test_reduce_examples(self):
        assert reduce_gr2((1, 0), (1, 0), (2, 1), 5) is None or True
        red = reduce_gr2((2, 1), (1, 1), (3, 2), 5)
        assert red is not None
        m2, lam2, mu2, eta2 = red
        assert lam2[0] + mu2[0] == eta2[0]

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


class TestEngineInvariants:
    def test_monotone_fold(self):
        # intersecting with one more divisor union never raises any maximal
        # face's dimension
        from gcschub.pluecker import vanishing_schubert
        from reference_faces import antichain, divisor_facets, intersect, whole_face

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
