import itertools

import pytest
from hypothesis import given, strategies as st

from gcschub.weyl import (
    ParabolicShape,
    Permutation,
    bruhat_leq,
    compose,
    grassmannian_perm,
    length,
    longest_element,
    min_coset_rep,
    parse_partition,
    parse_permutation,
    partition_of_perm,
    star_factorize,
)
from reference_oracle import reduced_word, star_factorize_by_word

S4 = [Permutation(p) for p in itertools.permutations(range(1, 5))]


def s(i, n):
    return Permutation.transposition(i, n)


class TestCompose:
    def test_involution(self):
        assert compose(s(1, 3), s(1, 3)).is_identity()

    def test_s1_s2(self):
        assert compose(s(1, 3), s(2, 3)).window == (2, 3, 1)

    def test_w0_involution(self):
        w0 = longest_element(4)
        assert compose(w0, w0).is_identity()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            compose(s(1, 3), s(1, 4))

    def test_not_a_window(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


@pytest.mark.parametrize("i", [0, 4])
@pytest.mark.parametrize(
    "make",
    [
        lambda i: Permutation.from_word([i], 4),
        lambda i: Permutation.identity(4).right_mul_s(i),
    ],
    ids=["from_word", "right_mul_s"],
)
def test_simple_reflection_out_of_range(make, i):
    # unchecked, s_0 would wrap round to the last window entry, and s_4
    # would run off the end of the window
    with pytest.raises(ValueError, match=f"^s_{i} does not exist in S_4$"):
        make(i)


class TestLength:
    def test_identity(self):
        assert length(Permutation.identity(4)) == 0

    def test_w0(self):
        assert length(longest_element(4)) == 6

    def test_312(self):
        # brute force count of inversions
        win = (3, 1, 2)
        brute = sum(
            1 for i, j in itertools.combinations(range(3), 2) if win[i] > win[j]
        )
        assert length(Permutation(win)) == brute == 2

    def test_cached_length_on_s6(self):
        for win in itertools.permutations(range(1, 7)):
            inversions = sum(
                1 for i, j in itertools.combinations(range(6), 2) if win[i] > win[j]
            )
            w = Permutation(win)
            assert length(w) == inversions == len(reduced_word(w))
            # a second call, on an equal window, is answered by the cache
            assert length(Permutation(win)) == inversions

    def test_subadditive_and_w0_complement(self):
        w0 = longest_element(4)
        for u in S4:
            for v in S4[:8]:
                assert length(compose(u, v)) <= length(u) + length(v)
            assert length(compose(w0, u)) == 6 - length(u)


class TestBruhat:
    def _below_by_subwords(self, w):
        """All u whose reduced word appears as a subword of w's."""
        word = reduced_word(w)
        below = set()
        for r in range(len(word) + 1):
            for positions in itertools.combinations(range(len(word)), r):
                cand = Permutation.from_word([word[p] for p in positions], w.n)
                if length(cand) == r:
                    below.add(cand)
        return below

    def test_identity_below_everything(self):
        for w in S4:
            assert bruhat_leq(Permutation.identity(4), w)

    def test_distinct_atoms(self):
        assert not bruhat_leq(s(1, 3), s(2, 3))

    def test_chain(self):
        u = compose(s(1, 3), s(2, 3))
        w = Permutation.from_word([1, 2, 1], 3)
        assert bruhat_leq(u, w)

    def test_against_subword_search_exhaustive(self):
        for n, group in ((3, [Permutation(p) for p in itertools.permutations(range(1, 4))]), (4, S4)):
            for w in group:
                below = self._below_by_subwords(w)
                for u in group:
                    assert bruhat_leq(u, w) == (u in below), (u, w)

    def test_partial_order(self):
        for u in S4:
            assert bruhat_leq(u, u)
            assert bruhat_leq(u, longest_element(4))
            for w in S4:
                if bruhat_leq(u, w) and bruhat_leq(w, u):
                    assert u == w
                if bruhat_leq(u, w):
                    assert length(u) <= length(w)


class TestLongestElement:
    def test_windows(self):
        assert longest_element(2).window == (2, 1)
        assert longest_element(4).window == (4, 3, 2, 1)

    def test_conjugation_flips_generators(self):
        w0 = longest_element(6)
        for i in range(1, 6):
            assert w0 * s(i, 6) * w0 == s(6 - i, 6)


class TestReducedWord:
    def test_identity(self):
        assert reduced_word(Permutation.identity(3)) == ()

    def test_single(self):
        assert reduced_word(Permutation((2, 1, 3))) == (1,)

    def test_w0_s3_lex_smallest(self):
        words = set()
        for word in itertools.product([1, 2], repeat=3):
            if Permutation.from_word(word, 3) == longest_element(3):
                words.add(word)
        assert reduced_word(longest_element(3)) == min(w for w in words)

    def test_products_and_lengths(self):
        for w in S4:
            word = reduced_word(w)
            assert len(word) == length(w)
            assert Permutation.from_word(word, 4) == w


class TestCosetRep:
    SHAPE = ParabolicShape((2,), 4)

    def test_idempotent_on_reps(self):
        w = Permutation((1, 3, 2, 4))
        assert min_coset_rep(w, self.SHAPE) == w

    def test_sorting_blocks(self):
        assert min_coset_rep(Permutation((3, 1, 4, 2)), self.SHAPE).window == (1, 3, 2, 4)

    def test_trivial_parabolic(self):
        shape = ParabolicShape((1, 2, 3), 4)
        for w in S4:
            assert min_coset_rep(w, shape) == w

    def test_factorization(self):
        for w in S4:
            rep = min_coset_rep(w, self.SHAPE)
            rest = compose(rep.inverse(), w)
            assert compose(rep, rest) == w
            # the residual factor permutes within blocks
            assert {rest(1), rest(2)} == {1, 2} and {rest(3), rest(4)} == {3, 4}


class TestGrassmannianPerm:
    def test_zero(self):
        assert grassmannian_perm((0, 0), 2, 4).is_identity()

    def test_one_box(self):
        assert grassmannian_perm((1, 0), 2, 4).window == (1, 3, 2, 4)

    def test_gr36(self):
        assert grassmannian_perm((2, 1, 0), 3, 6) == Permutation.from_word([2, 4, 3], 6)

    def test_round_trip(self):
        for mu in itertools.product(range(3), repeat=2):
            if mu[0] < mu[1]:
                continue
            w = grassmannian_perm(mu, 2, 4)
            assert partition_of_perm(w, 2) == mu

    def test_out_of_box(self):
        with pytest.raises(ValueError):
            grassmannian_perm((3, 0), 2, 4)

    def test_monotone_with_bruhat(self):
        parts = [(a, b) for a in range(3) for b in range(a + 1)]
        for mu in parts:
            for nu in parts:
                comp = all(x <= y for x, y in zip(mu, nu))
                assert comp == bruhat_leq(
                    grassmannian_perm(mu, 2, 4), grassmannian_perm(nu, 2, 4)
                )


def supports(factors):
    return tuple(frozenset(reduced_word(f)) for f in factors)


class TestStarFactorize:
    def test_disjoint_supports(self):
        factors = star_factorize(Permutation.from_word([1, 3], 4))
        assert len(factors) == 2
        assert supports(factors) == (frozenset({1}), frozenset({3}))

    def test_connected_is_level_one(self):
        assert len(star_factorize(Permutation.from_word([1, 2, 3], 4))) == 1

    def test_gap_splits(self):
        factors = star_factorize(Permutation.from_word([1, 2, 4], 5))
        assert len(factors) == 2
        assert supports(factors) == (frozenset({1, 2}), frozenset({4}))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            star_factorize(Permutation.identity(3))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_reduced_word_replay(self, n):
        # the window split against the factors replayed from the
        # lex-smallest reduced word, on every non-identity u in S_n
        for p in itertools.permutations(range(1, n + 1)):
            u = Permutation(p)
            if not u.is_identity():
                assert star_factorize(u) == star_factorize_by_word(u), u

    def test_invariants_on_s4(self):
        for u in S4:
            if u.is_identity():
                continue
            factors = star_factorize(u)
            prod = Permutation.identity(4)
            for f in factors:
                prod = compose(prod, f)
            assert prod == u
            assert sum(length(f) for f in factors) == length(u)
            for a, b in itertools.combinations(factors, 2):
                assert compose(a, b) == compose(b, a)
            # maximality: supports are separated by gaps >= 2
            for sa, sb in zip(supports(factors), supports(factors)[1:]):
                assert min(sb) - max(sa) >= 2


class TestParsing:
    def test_window_digits(self):
        assert parse_permutation("3124", 4).window == (3, 1, 2, 4)

    def test_window_commas(self):
        assert parse_permutation("3,1,2,4", 4).window == (3, 1, 2, 4)

    def test_word(self):
        assert parse_permutation("s1*s2*s1", 3) == longest_element(3)

    def test_id(self):
        assert parse_permutation("id", 5).is_identity()

    def test_partition(self):
        assert parse_partition("(2,1,0)") == (2, 1, 0)
        assert parse_partition("2,1") == (2, 1)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            parse_permutation("315", 3)

    @pytest.mark.parametrize("text", ["s0", "s-1", "s4", "s1*s5"])
    def test_letter_out_of_range(self, text):
        # S4 has the simple reflections s1, s2, s3 only
        with pytest.raises(ValueError):
            parse_permutation(text, 4)

    @pytest.mark.parametrize("text", ["ss1", "s1*2", "sss2", "s1*ss2"])
    def test_letter_is_s_and_an_integer(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text, 4)

    @pytest.mark.parametrize("text", ["", "e", "E", " ", "()"])
    def test_identity_is_written_id(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text, 3)

    @pytest.mark.parametrize("text", ["1,+2,3", "1, 2,3", "1,2_0,3", "-1,2,3", "\u0661\u0662\u0663",
                                      "1,2,\u0663", "+123", "s+1", "s 1", "s\u0661"])
    def test_permutation_numbers_are_digits(self, text):
        with pytest.raises(ValueError):
            parse_permutation(text, 3)

    @pytest.mark.parametrize("text", ["+1,0", "1_0,0", "1, 0", " 1,0", "1,0 ", "\u0661,0", "--1,0", "1-,0"])
    def test_partition_entries_are_integers(self, text):
        with pytest.raises(ValueError):
            parse_partition(f"({text})")

    def test_partition_may_be_a_negative_weight(self):
        assert parse_partition("(1,0,-1)") == (1, 0, -1)

    @pytest.mark.parametrize("text", ["2,+4", "2, 4", "2,-4", "1_0,12", "\u0662,4"])
    def test_shape_entries_are_digits(self, text):
        with pytest.raises(ValueError):
            ParabolicShape.parse(text)

    @pytest.mark.parametrize("text", ["((2,1))", "(2,1", "2,1)", "(2,(4", "2,4))", "((2,0"])
    def test_at_most_one_pair_of_parentheses(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)
        with pytest.raises(ValueError):
            ParabolicShape.parse(text)


class TestImage:
    def test_identity(self):
        assert Permutation.identity(4).image((1, 3)) == (1, 3)

    def test_w0_reverses(self):
        assert longest_element(4).image((1, 2)) == (3, 4)

    def test_cycle(self):
        c = Permutation((2, 3, 4, 5, 1))
        assert c.image((1, 3)) == (2, 4)

    def test_involution(self):
        u = Permutation((3, 1, 4, 2))
        assert u.inverse().image(u.image((2, 4))) == (2, 4)


@given(st.permutations(list(range(1, 7))))
def test_length_reduced_word_consistency(window):
    w = Permutation(tuple(window))
    word = reduced_word(w)
    assert len(word) == length(w)
    assert Permutation.from_word(word, 6) == w


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_bruhat_transitive_sample(wa, wb):
    u, w = Permutation(tuple(wa)), Permutation(tuple(wb))
    if bruhat_leq(u, w):
        assert length(u) <= length(w)


@given(st.permutations(list(range(1, 9))))
def test_cached_length_s8_sample(window):
    window = tuple(window)
    inversions = sum(
        1 for i, j in itertools.combinations(range(8), 2) if window[i] > window[j]
    )
    w = Permutation(window)
    assert length(w) == inversions == len(reduced_word(w))
    assert length(Permutation(window)) == inversions


def test_is_complete_counts_the_cuts():
    # cuts increase strictly within 1..n-1, so there are n-1 of them only
    # when they are all of 1..n-1
    for n in range(2, 9):
        for size in range(1, n):
            for cuts in itertools.combinations(range(1, n), size):
                shape = ParabolicShape(cuts, n)
                assert shape.is_complete() == (cuts == tuple(range(1, n))), shape
