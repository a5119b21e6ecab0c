import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcschub import coeffs
from gcschub.coeffs import (
    SnTables,
    build_modified_partition,
    chevalley,
    gr_structure_constant,
    lr_coefficient,
    structure_constant,
)
from gcschub.weyl import (
    Permutation,
    bruhat_leq,
    grassmannian_perm,
    length,
    longest_element,
)
from reference_oracle import (
    code,
    constant_by_descents,
    expand_product,
    perm_from_code,
    schubert_poly,
    structure_constant_reference,
    truncated_product,
)
from paper_checks import pieri_gr2
from reference_partition import (
    all_triples,
    apply_identities,
    build_modified_partition_closures,
    build_modified_partition_reference,
    recursion_step,
    split_by_star,
)

S3 = [Permutation(p) for p in itertools.permutations(range(1, 4))]
S4 = [Permutation(p) for p in itertools.permutations(range(1, 5))]


def s(i, n):
    return Permutation.transposition(i, n)


def box_partitions(m, width):
    return [
        combo
        for combo in itertools.product(range(width + 1), repeat=m)
        if all(a >= b for a, b in zip(combo, combo[1:]))
    ]


class TestSchubertPolynomials:
    def test_identity(self):
        assert schubert_poly(Permutation.identity(3)) == {(): 1}

    def test_s1(self):
        assert schubert_poly(s(1, 4)) == {(1,): 1}

    def test_s2(self):
        assert schubert_poly(s(2, 3)) == {(1,): 1, (0, 1): 1}

    def test_w0_staircase(self):
        assert schubert_poly(longest_element(4)) == {(3, 2, 1): 1}

    def test_stability(self):
        w = Permutation((2, 1, 3))
        w_padded = Permutation((2, 1, 3, 4, 5))
        assert schubert_poly(w) == schubert_poly(w_padded)

    def test_code_round_trip(self):
        for w in S4:
            window = perm_from_code(code(w))
            padded = window + tuple(range(len(window) + 1, 5))
            assert Permutation(padded) == w


class TestStructureConstants:
    def test_trivial(self):
        for w in S4[::4]:
            assert structure_constant([Permutation.identity(4), w], w) == 1

    def test_degree_mismatch_zero(self):
        assert structure_constant([s(1, 4), s(1, 4)], s(1, 4)) == 0

    def test_monk_rule_s4(self):
        # independent Monk check, with one stability column
        for k in (1, 2, 3):
            sk = s(k, 4)
            for w in S4:
                win = w.window + (5,)
                want = {}
                for a in range(1, k + 1):
                    for b in range(k + 1, 6):
                        t = list(win)
                        t[a - 1], t[b - 1] = t[b - 1], t[a - 1]
                        tp = Permutation(tuple(t))
                        if length(tp) == length(w) + 1:
                            key = tp.window
                            while len(key) > 1 and key[-1] == len(key):
                                key = key[:-1]
                            want[key] = 1
                assert expand_product([sk, w]) == want

    def test_peel_equals_descent_operator(self):
        import random

        rng = random.Random(3)
        for _ in range(25):
            u = S4[rng.randrange(24)]
            v = S4[rng.randrange(24)]
            for w in S4:
                if length(w) == length(u) + length(v):
                    assert structure_constant([u, v], w) == constant_by_descents([u, v], w)

    def test_positivity_everywhere(self):
        for u in S3:
            for v in S3:
                assert all(c > 0 for c in expand_product([u, v]).values())

    def test_gr36_flagship(self):
        u = grassmannian_perm((2, 1, 0), 3, 6)
        w = grassmannian_perm((3, 2, 1), 3, 6)
        assert structure_constant([u, u], w) == 2

    def test_multifactor(self):
        v = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
        w = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)
        assert structure_constant([s(4, 6), s(2, 6), v], w) == 2

    def test_commutative_associative(self):
        for u in S3:
            for v in S3:
                assert expand_product([u, v]) == expand_product([v, u])
        a, b, c = s(1, 3), s(2, 3), s(1, 3)
        assert expand_product([a, b, c]) == expand_product([c, a, b])


@st.composite
def products(draw):
    """Two or three factors of S_6 or S_7, each the product of a word of at
    most seven simple reflections, so that the reference stays fast."""
    n = draw(st.sampled_from([6, 7]))
    word = st.lists(st.integers(1, n - 1), max_size=7)
    k = draw(st.integers(2, 3))
    return [Permutation.from_word(draw(word), n) for _ in range(k)], n


class TestRowTable:
    """The row table (Monk's rule and the transition, truncated to S_n)
    against the polynomial reference in ``reference_oracle``."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_triple_matches_reference(self, n):
        triples = all_triples(n)
        assert len(triples) == {3: 35, 4: 1115, 5: 74199}[n]
        for u, v, w in triples:
            assert structure_constant([u, v], w) == structure_constant_reference([u, v], w), (u, v, w)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_match_reference(self, n):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for u in perms:
            for v in perms:
                assert coeffs._fold([u.window, v.window]) == truncated_product([u, v], n), (u, v)

    @settings(max_examples=100, deadline=None)
    @given(products())
    def test_sampled_products_match_reference(self, product):
        us, n = product
        assert coeffs._fold([u.window for u in us]) == truncated_product(us, n)

    def test_no_factor_and_one_factor(self):
        e, s1, s2 = Permutation.identity(4), s(1, 4), s(2, 4)
        assert structure_constant([], e) == 1
        assert structure_constant([], s1) == 0
        assert structure_constant([s1], s1) == 1
        assert structure_constant([s1], s2) == 0
        for us, w in (([], e), ([], s1), ([s1], s1), ([s1], s2)):
            assert structure_constant(us, w) == structure_constant_reference(us, w)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            structure_constant([s(1, 4), s(1, 3)], Permutation.from_word([1, 2], 4))
        with pytest.raises(ValueError):
            structure_constant([s(1, 3)], s(1, 4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_terms_outside_sn_are_dropped(self, n):
        # s_{n-1} * s_{n-1} = S_{s_{n-2} s_{n-1}} + S_{s_n s_{n-1}}; the second
        # class lives in S_{n+1} only
        last = s(n - 1, n)
        inside = Permutation.from_word([n - 2, n - 1], n).window
        outside = Permutation.from_word([n, n - 1], n + 1).window
        assert expand_product([last, last]) == {inside: 1, outside: 1}
        assert coeffs._fold([last.window, last.window]) == {inside: 1}
        assert structure_constant([last, last], Permutation(inside)) == 1

    def test_negative_row_is_an_error(self, monkeypatch):
        # a Monk step that loses its positive terms leaves negative
        # coefficients, which no product of Schubert classes has
        monk = coeffs._monk

        def negative_terms(z, r):
            return tuple((t, sign) for t, sign in monk(z, r) if sign < 0)

        monkeypatch.setattr(coeffs, "_monk", negative_terms)
        coeffs._row.cache_clear()
        try:
            with pytest.raises(AssertionError, match="negative coefficient"):
                structure_constant([s(2, 3), s(2, 3)], Permutation((3, 1, 2)))
        finally:
            coeffs._row.cache_clear()


class TestLROracle:
    def test_small_values(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1
        assert lr_coefficient((), (2, 1), (2, 1)) == 1
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr_coefficient((1,), (1,), (3,)) == 0

    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7)])
    def test_agrees_with_schubert_oracle(self, m, n):
        parts = box_partitions(m, n - m)
        for mu in parts:
            for nu in parts:
                for eta in parts:
                    if sum(eta) != sum(mu) + sum(nu):
                        continue
                    assert gr_structure_constant(mu, nu, eta, m, n) == structure_constant(
                        [grassmannian_perm(mu, m, n), grassmannian_perm(nu, m, n)],
                        grassmannian_perm(eta, m, n),
                    ), (mu, nu, eta)

    def test_box_guard(self):
        with pytest.raises(ValueError):
            gr_structure_constant((3, 0), (1, 0), (3, 1), 2, 4)


class TestRules:
    def test_chevalley_examples(self):
        assert chevalley((0, 0), 2, 4) == [((1, 0), 1)]
        assert sorted(chevalley((1, 0), 2, 4)) == [((1, 1), 1), ((2, 0), 1)]
        assert chevalley((2, 2), 2, 4) == []

    def test_chevalley_matches_oracle(self):
        for (m, n) in ((2, 4), (2, 5), (3, 6)):
            one = tuple([1] + [0] * (m - 1))
            for mu in box_partitions(m, n - m):
                got = dict(chevalley(mu, m, n))
                for eta in box_partitions(m, n - m):
                    want = gr_structure_constant(one, mu, eta, m, n)
                    assert got.get(eta, 0) == want, (mu, eta)

    def test_pieri_gr2(self):
        assert pieri_gr2((1, 0), 4) == (2, 1)
        assert pieri_gr2((2, 0), 4) is None
        assert pieri_gr2((2, 1), 5) == (3, 2)

    def test_pieri_matches_oracle(self):
        for n in (4, 5, 6):
            for mu in box_partitions(2, n - 2):
                got = pieri_gr2(mu, n)
                for eta in box_partitions(2, n - 2):
                    want = gr_structure_constant((1, 1), mu, eta, 2, n)
                    assert want == (1 if got == eta else 0)

    def test_special_matches_oracle(self):
        for (m, n) in ((2, 5), (3, 6)):
            for r in range(0, n - m + 1):
                for q in range(0, n - m - r + 1):
                    row = lambda t: tuple([t] + [0] * (m - 1))
                    assert gr_structure_constant(row(r), row(q), row(r + q), m, n) == 1


class TestIdentities:
    def test_swap(self):
        t = (s(1, 4), s(2, 4), Permutation.from_word([1, 2], 4))
        orbit = apply_identities(t)
        assert (t[1], t[0], t[2]) in orbit

    def test_duality_member(self):
        u, v, w = s(1, 4), s(2, 4), Permutation.from_word([1, 2], 4)
        w0 = longest_element(4)
        assert (u, w0 * w, w0 * v) in apply_identities((u, v, w))

    def test_orbit_preserves_constant(self):
        import random

        rng = random.Random(5)
        triples = [t for t in all_triples(3)]
        for t in triples:
            base = structure_constant([t[0], t[1]], t[2])
            for (a, b, c) in apply_identities(t):
                assert structure_constant([a, b], c) == base, (t, (a, b, c))

    def test_orbit_preserves_constant_s4_sample(self):
        import random

        rng = random.Random(11)
        triples = all_triples(4)
        for t in rng.sample(triples, 60):
            base = structure_constant([t[0], t[1]], t[2])
            for (a, b, c) in apply_identities(t):
                assert structure_constant([a, b], c) == base


class TestRecursion:
    def test_zero_verdict(self):
        # two ascents against a descent force the constant to vanish
        u = s(1, 4)
        v = Permutation.from_word([2, 1], 4)
        w = Permutation.from_word([2, 1, 3], 4)
        res = recursion_step((u, v, w), 3)
        assert res.kind == "zero"
        assert structure_constant([u, v], w) == 0

    def test_inapplicable(self):
        u = s(1, 4)
        res = recursion_step((u, u, u), 1)
        assert res.kind == "inapplicable"

    def test_step_preserves_constant_everywhere(self):
        for t in all_triples(3):
            for i in (1, 2):
                res = recursion_step(t, i)
                if res.kind == "step":
                    a, b, c = res.triple
                    assert structure_constant([a, b], c) == structure_constant(
                        [t[0], t[1]], t[2]
                    )
                elif res.kind == "zero":
                    assert structure_constant([t[0], t[1]], t[2]) == 0

    def test_step_preserves_constant_s4_sample(self):
        import random

        rng = random.Random(2)
        for t in rng.sample(all_triples(4), 80):
            for i in (1, 2, 3):
                res = recursion_step(t, i)
                if res.kind == "step":
                    a, b, c = res.triple
                    assert structure_constant([a, b], c) == structure_constant(
                        [t[0], t[1]], t[2]
                    )
                elif res.kind == "zero":
                    assert structure_constant([t[0], t[1]], t[2]) == 0


class TestStarSplit:
    def test_splits_disjoint(self):
        u = Permutation.from_word([4, 2], 6)
        v = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
        w = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)
        split = split_by_star((u, v, w))
        assert len(split) == 4
        assert split[0] == s(2, 6) and split[1] == s(4, 6)

    def test_level_one_unchanged(self):
        u = Permutation.from_word([1, 2, 3], 4)
        v = s(1, 4)
        w = longest_element(4)
        assert split_by_star((u, v, w))[:1] == (u,)

    def test_split_preserves_constant(self):
        u = Permutation.from_word([1, 3], 4)
        v = s(2, 4)
        for w in S4:
            if length(w) != 3:
                continue
            split = split_by_star((u, v, w))
            assert len(split) == 4
            assert structure_constant(list(split[:-1]), w) == structure_constant(
                [u, v], w
            )


class TestModifiedPartition:
    def test_n2(self):
        classes = build_modified_partition(2)
        kinds = sorted(c.kind for c in classes)
        assert "zero" in kinds or len(classes) >= 1
        total = sum(len(c.members) for c in classes)
        assert total == len(all_triples(2))

    def test_n3_constant_consistency(self):
        classes = build_modified_partition(3)
        for cls in classes:
            values = {
                structure_constant([u, v], w) for (u, v, w) in cls.members
            }
            assert len(values) == 1
            if cls.kind == "zero":
                assert values == {0}

    def test_n4_partition_and_zero_class(self):
        classes = build_modified_partition(4)
        total = sum(len(c.members) for c in classes)
        assert total == len(all_triples(4)) == 1115
        for cls in classes:
            values = {structure_constant([u, v], w) for (u, v, w) in cls.members}
            assert len(values) == 1
            if cls.kind == "zero":
                assert values == {0}

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            build_modified_partition(6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference(self, n):
        # kind, members, extended tuples and class order
        assert build_modified_partition(n) == build_modified_partition_reference(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_closure_reference(self, n):
        # the inline union-find pass against the find/union closures it
        # replaced: kind, members, extended tuples and class order
        assert build_modified_partition(n) == build_modified_partition_closures(n)

    def test_n5_totals(self):
        classes = build_modified_partition(5)
        by_kind = {"regular": 0, "zero": 0}
        for cls in classes:
            by_kind[cls.kind] += len(cls.members)
        assert sum(by_kind.values()) == 74199
        assert by_kind == {"regular": 8331, "zero": 65868}
        assert sum(len(cls.extended) for cls in classes) == 3266

    def test_extended_tuples_preserve_constants(self):
        classes = build_modified_partition(4)
        for cls in classes:
            if cls.kind != "regular":
                continue
            base = structure_constant(
                [cls.members[0][0], cls.members[0][1]], cls.members[0][2]
            )
            for tup in cls.extended[:20]:
                assert structure_constant(list(tup[:-1]), tup[-1]) == base


class TestSnTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_triples_in_all_triples_order(self, n):
        tab = SnTables(n)
        p = tab.perms
        assert [(p[u], p[v], p[w]) for u, v, w in tab.triples] == all_triples(n)
        assert all(tab.index(*t) == k for k, t in enumerate(tab.triples))

    @pytest.mark.parametrize("n", [4, 5])
    def test_tables_match_permutation_operations(self, n):
        tab = SnTables(n)
        p = tab.perms
        w0 = longest_element(n)
        assert p == sorted(p)
        for k, x in enumerate(p):
            assert tab.length[k] == length(x)
            for i in range(1, n):
                assert p[tab.right_mul[i][k]] == x.right_mul_s(i)
                assert bool(tab.ascents[k] >> i & 1) == (length(x.right_mul_s(i)) > length(x))
            assert p[tab.conj[k]] == w0 * x * w0
            assert p[tab.w0_left[k]] == w0 * x
            assert tuple(p[j] for j in tab.star[k]) == split_by_star((x, x))[:-1]
            assert [j for j in range(len(p)) if tab.below[k] >> j & 1] == [
                j for j, y in enumerate(p) if bruhat_leq(y, x)
            ]

    @pytest.mark.parametrize("n", [4, 5])
    def test_moves_match_recursion_step(self, n):
        tab = SnTables(n)
        p = tab.perms
        for u, v, w in tab.triples:
            t = (p[u], p[v], p[w])
            results = [recursion_step(t, i) for i in range(1, n)]
            steps, vanishes = tab.moves(u, v, w)
            stepped = [tab.triples[k] for k in steps]
            assert [(p[a], p[b], p[c]) for a, b, c in stepped] == [
                res.triple for res in results if res.kind == "step"
            ]
            assert vanishes == any(res.kind == "zero" for res in results)
