import itertools

import pytest

from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import (
    ParabolicShape,
    Permutation,
    bruhat_leq,
    grassmannian_perm,
    longest_element,
    min_coset_rep,
)
from paper_checks import (
    path_join,
    path_meet,
    toric_divisor_equations,
    toric_subvariety_equations,
)
from reference_faces import (
    antichain,
    delta_uv_by_faces,
    divisor_bits,
    divisor_facets,
    divisor_row,
    facet_face,
    fold_paths_by_faces,
    intersect,
    meet,
    path_leq,
    vanishing_schubert,
    vertex_bits,
    w_divisor,
    whole_face,
)


def setup(*cuts_n):
    d = LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1]))
    return d, Polytope(d)


D24, P24 = setup(2, 4)
D25, P25 = setup(2, 5)
D3, P3 = setup(1, 2, 3)


def translated(u, vanishing):
    """u acting by ``Permutation.image`` on every index tuple of a vanishing set."""
    return {level: frozenset(u.image(i) for i in idxs) for level, idxs in vanishing.items()}


def vanishing_bottom(d, v):
    """The vanishing set of X_v, as the translate w_0 X^{pi(w_0 v)}."""
    w0 = longest_element(d.n)
    return translated(w0, vanishing_schubert(d, min_coset_rep(w0 * v, d.shape)))


def vanishing_bottom_direct(d, v):
    """The vanishing set of X_v read off the paths: p_I vanishes at a level
    iff the path of I does not run below the path of sort(v([1..level]))."""
    return {
        level: frozenset(p for p in d.paths_at_level(level) if not path_leq(p, w_divisor(v, level)))
        for level in d.shape.cuts
    }


def box_partitions(m, width):
    out = []
    for combo in itertools.product(range(width + 1), repeat=m):
        if all(a >= b for a, b in zip(combo, combo[1:])):
            out.append(combo)
    return out


class TestWDivisor:
    def test_identity(self):
        assert w_divisor(Permutation.identity(4), 2) == (1, 2)

    def test_w0(self):
        assert w_divisor(longest_element(4), 2) == (3, 4)

    def test_cycle(self):
        c = Permutation((2, 3, 4, 5, 1))
        assert w_divisor(c, 2) == (2, 3)

    def test_level_out_of_range(self):
        # s_level exists in S_4 only for level 1, 2, 3
        for level in (0, 4):
            with pytest.raises(ValueError):
                w_divisor(Permutation.identity(4), level)


class TestVanishing:
    def test_opposite_one_one(self):
        for n in (4, 5):
            d, _ = setup(2, n)
            v = grassmannian_perm((1, 1), 2, n)
            assert vanishing_schubert(d, v)[2] == frozenset(
                (1, j) for j in range(2, n + 1)
            )

    def test_full_box_schubert_is_whole(self):
        full = grassmannian_perm((2, 2), 2, 4)
        assert vanishing_bottom(D24, full)[2] == frozenset()

    def test_s1_fl3(self):
        vs = vanishing_schubert(D3, Permutation((2, 1, 3)))
        assert vs[1] == frozenset({(1,)})
        assert vs[2] == frozenset()

    def test_levelwise_rule_vs_fixed_point_brute_force(self):
        # p_I vanishes on X^v iff no coset representative u >= v has
        # sort(u[1..j]) = I; same for X_w with u <= w, whose vanishing set
        # is the translate of that of X^{pi(w_0 w)} by w_0
        for shape in (ParabolicShape((1, 2, 3), 4), ParabolicShape((2,), 4), ParabolicShape((1, 3), 4)):
            d = LadderDiagram(shape)
            perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
            reps = [w for w in perms if shape.in_min_coset_reps(w)]
            for v in reps:
                for opposite in (True, False):
                    got = vanishing_schubert(d, v) if opposite else vanishing_bottom(d, v)
                    for level in shape.cuts:
                        alive = {
                            u.image(range(1, level + 1))
                            for u in perms
                            if (bruhat_leq(v, u) if opposite else bruhat_leq(u, v))
                        }
                        dead = {
                            p
                            for p in d.paths_at_level(level)
                            if p not in alive
                        }
                        assert got[level] == dead, (shape, v, opposite, level)

    def test_translated_cycle(self):
        c = Permutation((2, 3, 4, 1))
        v = grassmannian_perm((1, 1), 2, 4)
        got = translated(c, vanishing_schubert(D24, v))
        assert got[2] == frozenset({(1, 2), (2, 3), (2, 4)})

    def test_translation_involution(self):
        u = Permutation((3, 1, 4, 2))
        v = grassmannian_perm((1, 0), 2, 4)
        vs = vanishing_schubert(D24, v)
        assert translated(u.inverse(), translated(u, vs)) == vs

    def test_bottom_schubert_equals_w0_translation(self):
        # X_w = w_0 X^{pi(w_0 w)} at the level of vanishing sets
        w0 = longest_element(4)
        for shape, d in ((ParabolicShape((2,), 4), D24), (ParabolicShape((1, 2, 3), 4), LadderDiagram(ParabolicShape((1, 2, 3), 4)))):
            perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
            for w in perms:
                if not shape.in_min_coset_reps(w):
                    continue
                direct = vanishing_bottom_direct(d, w)
                via_translation = translated(
                    w0, vanishing_schubert(d, min_coset_rep(w0 * w, shape))
                )
                assert direct == via_translation, (shape, w)

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            vanishing_schubert(D24, Permutation((2, 1, 3, 4)))


class TestDeltaUV:
    """Each shadow twice: its maximal faces by the reference fold, and the
    vertex bitset of the row ``Polytope.piece`` returns."""

    def test_id_id_is_whole(self):
        idt = Permutation.identity(4)
        fu = delta_uv_by_faces(P24, idt, idt)
        assert fu == (whole_face(P24),)
        assert P24.piece(idt, idt)[0] == vertex_bits(P24, fu)

    def test_F_mu_for_all_mu(self):
        for (m, n, poly) in ((2, 4, P24), (2, 5, P25)):
            for mu in box_partitions(2, n - 2):
                v = grassmannian_perm(mu, m, n)
                fu = delta_uv_by_faces(poly, Permutation.identity(n), v)
                assert fu == (poly.named_face(mu),), (mu, fu)
                piece = poly.piece(Permutation.identity(n), v)
                assert piece[0] == vertex_bits(poly, fu)

    def test_Fvee_eta_for_all_eta(self):
        for (m, n, poly) in ((2, 4, P24), (2, 5, P25)):
            for eta in box_partitions(2, n - 2):
                w0 = longest_element(n)
                w = grassmannian_perm(eta, m, n)
                rep = min_coset_rep(w0 * w, poly.shape)
                fu = delta_uv_by_faces(poly, w0, rep)
                assert fu == (poly.named_face(eta, dual=True),), (eta, fu)
                assert poly.piece(w0, rep)[0] == vertex_bits(poly, fu)

    @pytest.mark.parametrize("cuts_n, step", [
        ((2, 5), 1), ((1, 2, 3, 4), 1), ((1, 3, 5), 1), ((3, 6), 7)], ids=str)
    def test_row_matches_reference_vanishing_set_and_face_fold(self, cuts_n, step):
        # every (u, v), or every step-th on Gr(3,6): the row is the one
        # built from the reference vanishing set of v translated by u, and
        # its bitset is the vertex set of the face fold of those divisors,
        # folded once per divisor set
        d, poly = setup(*cuts_n)
        perms = [Permutation(p) for p in itertools.permutations(range(1, d.n + 1))]
        reps = [v for v in perms if d.shape.in_min_coset_reps(v)]
        vanishing = {v: vanishing_schubert(d, v) for v in reps}
        facets = {e: facet_face(poly, e) for e in d.effective_edges}
        folds = {}
        for u, v in list(itertools.product(perms, reps))[::step]:
            paths = frozenset().union(*translated(u, vanishing[v]).values())
            row = poly.piece(u, v)
            assert row == divisor_row(poly, paths), (u, v)
            if paths not in folds:
                folds[paths] = vertex_bits(
                    poly, meet(poly, [[facets[e] for e in d.effective_edges_on(p)] for p in paths]))
            assert row[0] == folds[paths], (u, v)

    def test_fold_order_independent(self):
        import random

        rng = random.Random(7)
        v = grassmannian_perm((2, 1), 2, 5)
        vs = vanishing_schubert(D25, v)
        vanishing = [idx for level in sorted(vs) for idx in sorted(vs[level])]
        reference = fold_paths_by_faces(P25, vanishing)
        assert divisor_bits(P25, vanishing) == vertex_bits(P25, reference)
        for _ in range(5):
            shuffled = vanishing[:]
            rng.shuffle(shuffled)
            union = (whole_face(P25),)
            for p in shuffled:
                facets = divisor_facets(P25, p)
                union = antichain([intersect(P25, f, g) for f in union for g in facets])
            assert union == reference


class TestToricEquations:
    def test_divisor_double_count(self):
        for d in (D24, D3):
            for level in d.shape.cuts:
                for p in d.paths_at_level(level):
                    onpath = d.effective_edges_on(p)
                    hits = sum(
                        1
                        for e in d.effective_edges
                        if p in toric_divisor_equations(d, e)[level]
                    )
                    assert hits == len(onpath)

    def test_roof_edge_paths(self):
        eqs = toric_divisor_equations(D24, ("H", 1, 2))
        for steps in eqs[2]:
            assert ("H", 1, 2) in D24.effective_edges_on(steps)

    def test_non_effective_rejected(self):
        with pytest.raises(ValueError):
            toric_divisor_equations(D24, ("H", 2, 2))

    def test_subvariety_matches_schubert(self):
        for mu in box_partitions(2, 2):
            w = grassmannian_perm(mu, 2, 4)
            assert toric_subvariety_equations(D24, mu) == vanishing_schubert(D24, w)
            assert toric_subvariety_equations(D24, mu, dual=True) == vanishing_bottom(D24, w)

    def test_mu_10_explicit(self):
        got = toric_subvariety_equations(D24, (1, 0))
        assert got[2] == frozenset({(1, 2)})

    def test_delta_k_identity_gr2(self):
        # folding the facet unions of the shifted one-one class reproduces
        # the codimension-two face, for every shift
        for n in range(4, 9):
            poly = P25 if n == 5 else setup(2, n)[1]
            for k in range(1, n - 1):
                paths = [tuple(sorted((k + 1, j))) for j in range(1, n + 1) if j != k + 1]
                fu = fold_paths_by_faces(poly, paths)
                assert fu == (poly.delta_k_face(k),), (n, k, fu)
                assert divisor_bits(poly, paths) == vertex_bits(poly, fu), (n, k)

    def test_straightening_lattice_compatibility(self):
        # an effective edge lies on one of two incomparable paths iff it
        # lies on their meet or join; checked exhaustively for n <= 6
        for cuts_n in [(2, 4), (2, 5), (2, 6), (3, 6), (1, 2, 3, 4)]:
            d = LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1]))
            paths = d.all_paths()
            for p, q in itertools.combinations(paths, 2):
                if path_leq(p, q) or path_leq(q, p):
                    continue
                on_p = set(d.effective_edges_on(p))
                on_q = set(d.effective_edges_on(q))
                on_meet = set(d.effective_edges_on(path_meet(p, q)))
                on_join = set(d.effective_edges_on(path_join(p, q)))
                for e in d.effective_edges:
                    assert (e in on_p or e in on_q) == (
                        e in on_meet or e in on_join
                    ), (p, q, e)
