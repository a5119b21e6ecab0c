"""Acceptance gate: nine criteria, each printing one PASS line when it
holds.  Everything is exact; run with -s to watch the lines appear."""

import itertools
import math
import time

from gcschub.certify import evaluate, sweep_complete_flag, sweep_gr2
from gcschub.coeffs import (
    chevalley,
    gr_structure_constant,
    structure_constant,
)
from gcschub.gc_polytope import Polytope
from gcschub.kogan import enumerate_reduced, face_from_positions
from gcschub.ladder import (
    LadderDiagram,
    decompose_weight,
    is_gc_pattern,
)
from gcschub.weyl import (
    ParabolicShape,
    Permutation,
    grassmannian_perm,
    longest_element,
    min_coset_rep,
)
from paper_checks import add_patterns, exponent_vector, path_join, path_meet, phi, pieri_gr2
from reference_faces import face_dimension_by_rank, facet_face, intersect, path_leq, whole_face
from reference_partition import all_triples, apply_identities, recursion_step, split_by_star


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def make(*cuts_n):
    return Polytope(LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1])))


def box_partitions(m, width):
    return [
        c
        for c in itertools.product(range(width + 1), repeat=m)
        if all(a >= b for a, b in zip(c, c[1:]))
    ]


def test_criterion_1_gr36_flagship():
    start = time.monotonic()
    n = 6

    def word(*letters):
        return Permutation.from_word(list(letters), n)

    # the displayed reduction chain, step by step, each oracle-checked
    t0 = (word(2, 4, 3), word(2, 4, 3), word(3, 5, 4, 1, 2, 3))
    base = structure_constant([t0[0], t0[1]], t0[2])
    assert base == 2

    def v_step(t, i):
        res = recursion_step((t[1], t[0], t[2]), i)
        assert res.kind == "step"
        b, a, c = res.triple
        return (a, b, c)

    def u_step_back(shorter, i, expect):
        res = recursion_step(shorter, i)
        assert res.kind == "step" and res.triple == expect
        return shorter

    t1 = v_step(t0, 1)
    assert t1 == (word(2, 4, 3), word(2, 4, 3, 1), word(3, 5, 4, 1, 2, 3, 1))
    t2 = v_step(t1, 2)
    assert t2 == (word(2, 4, 3), word(2, 4, 3, 1, 2), word(3, 5, 4, 1, 2, 3, 1, 2))
    t3 = (word(2, 4), word(2, 4, 3, 1, 2), word(3, 5, 4, 2, 3, 1, 2))
    u_step_back(t3, 3, t2)
    t4 = v_step(t3, 3)
    assert t4[2] == word(3, 5, 4, 2, 3, 1, 2, 3)
    t5 = v_step(t4, 1)
    t6 = (
        word(4, 2),
        word(4, 2, 3, 5, 4, 3, 5),
        word(3, 1, 2, 4, 3, 5, 4, 3, 5),
    )
    assert t6 in apply_identities(t5)
    for t in (t1, t2, t3, t4, t5, t6):
        assert structure_constant([t[0], t[1]], t[2]) == 2

    split = split_by_star(t6)
    assert len(split) == 4
    s2, s4, v, w = split
    assert (s2, s4) == (Permutation.transposition(2, 6), Permutation.transposition(4, 6))
    assert structure_constant([s2, s4, v], w) == 2

    # certificate with the Grassmannian translations of the two paths
    poly = make(1, 2, 3, 4, 5, 6)
    ut = Permutation((2, 3, 1, 4, 5, 6))
    vt = Permutation((1, 4, 5, 6, 2, 3))
    cert = evaluate(poly, [s2, s4, v], w, [ut, vt, Permutation.identity(6)])
    assert cert.ok
    assert cert.count == 2 == cert.oracle == base
    assert len(cert.vertices) == 2
    assert all(poly.is_regular(x) and poly.in_VX(x) for x in cert.vertices)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"Gr(3,6) flagship: |S| = 2 regular vertices, N = 2 ({elapsed:.2f}s < 10s)")


def test_criterion_2_fl4_sweep():
    from gcschub.certify import search

    start = time.monotonic()
    rep = sweep_complete_flag(4)
    assert rep.all_resolved
    assert sum(c.size for c in rep.classes) == len(all_triples(4)) == 1115
    for c in rep.classes:
        assert c.kind in ("zero", "certified")
        if c.kind == "certified":
            assert c.witness is not None and c.witness.ok

    # beyond the class resolution: every single triple certifies through its
    # own symmetry orbit with one moving translation slot
    poly = make(1, 2, 3, 4)

    def resolve_triple(t):
        for member in sorted(apply_identities(t)):
            res = search(poly, [member[0], member[1]], member[2],
                         budget=200, tiers=(1,))
            if res.ok:
                return res
            split = split_by_star(member)
            if len(split) > 3:
                res = search(poly, list(split[:-1]), split[-1],
                             budget=200, tiers=(1,))
                if res.ok:
                    return res
        # a handful of triples need a genuine translation pair
        return search(poly, [t[0], t[1]], t[2], budget=600, tiers=(3,)).certificate

    for t in all_triples(4):
        assert resolve_triple(t) is not None, t
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(2, f"Fl4 sweep: {len(rep.classes)} classes all certified-or-zero, "
              f"1115 triples oracle-checked and individually certified "
              f"through their orbits ({elapsed:.2f}s < 5min)")


def test_criterion_3_gr2_sweeps_and_tables():
    start = time.monotonic()
    for n in (4, 5, 6):
        # the constructive tier alone must certify every reduced triple
        rep = sweep_gr2(n, tiers=(2,))
        assert rep.all_resolved, n
        # Chevalley table
        for mu in box_partitions(2, n - 2):
            table = dict(chevalley(mu, 2, n))
            for eta in box_partitions(2, n - 2):
                assert table.get(eta, 0) == gr_structure_constant((1, 0), mu, eta, 2, n)
        # Pieri table
        for mu in box_partitions(2, n - 2):
            hit = pieri_gr2(mu, n)
            for eta in box_partitions(2, n - 2):
                assert (eta == hit) == bool(
                    gr_structure_constant((1, 1), mu, eta, 2, n)
                )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(3, f"Gr(2,n) n<=6: every triple reduced+certified; Pieri and "
              f"Chevalley tables match the oracle ({elapsed:.2f}s < 2min)")


def test_criterion_4_vertex_counts():
    start = time.monotonic()
    for (m, n) in ((2, 4), (2, 5), (3, 6)):
        assert len(make(m, n).vertices()) == math.comb(n, m)
    for n in (3, 4, 5):
        poly = make(*range(1, n), n)
        verts = poly.vertices()
        regular = {v for v in verts if poly.is_regular(v)}
        vx = {v for v in verts if poly.in_VX(v)}
        assert len(regular) == math.factorial(n)
        assert regular == vx
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"vertex counts: C(n,m) on three Grassmannians, n! regular = "
              f"flag-variety vertices for n=3,4,5 ({elapsed:.2f}s < 1min)")


def test_criterion_5_degeneration_combinatorics():
    from reference_faces import delta_uv_by_faces, divisor_bits, fold_paths_by_faces, vertex_bits

    # each shadow as maximal faces by the reference fold, and as the vertex
    # bitset of the package
    for (m, n) in ((2, 4), (2, 5)):
        poly = make(m, n)
        for mu in box_partitions(2, n - 2):
            w = grassmannian_perm(mu, 2, n)
            fu = delta_uv_by_faces(poly, Permutation.identity(n), w)
            assert fu == (poly.named_face(mu),)
            piece = poly.piece(Permutation.identity(n), w)
            assert piece[0] == vertex_bits(poly, fu)
            w0 = longest_element(n)
            rep = min_coset_rep(w0 * w, poly.shape)
            fv = delta_uv_by_faces(poly, w0, rep)
            assert fv == (poly.named_face(mu, dual=True),)
            assert poly.piece(w0, rep)[0] == vertex_bits(poly, fv)
    poly5 = make(2, 5)
    for k in (1, 2, 3):
        paths = [
            tuple(sorted((k + 1, j)))
            for j in range(1, 6)
            if j != k + 1
        ]
        fu = fold_paths_by_faces(poly5, paths)
        assert fu == (poly5.delta_k_face(k),)
        assert divisor_bits(poly5, paths) == vertex_bits(poly5, fu)
    report(5, "degeneration: Delta(id,w_mu)=F_mu, Delta(w0,.)=F_mu^vee on "
              "Gr(2,4)/Gr(2,5); shifted-face identity holds for k=1..3")


def test_criterion_6_lattice_weight_bijection():
    cases = [
        ((2,), 4, (2, 2, 0, 0)),
        ((1, 2), 3, (2, 1, 0)),
    ]
    for cuts, n, lam in cases:
        diagram = LadderDiagram(ParabolicShape(cuts, n))
        poly = Polytope(diagram)
        points = poly.lattice_points(lam)
        lam_ext = lam + (0,)
        multiplicities = {
            j: lam_ext[j - 1] - lam_ext[j] for j in range(1, n + 1)
        }
        # every point decomposes with the right path multiset
        for pt in points:
            paths = decompose_weight(diagram, lam, pt)
            for j, want in multiplicities.items():
                assert sum(1 for p in paths if len(p) == j) == want
        # every admissible multiset lands on a point, onto and injectively
        pools = []
        for j, count in multiplicities.items():
            if count == 0:
                continue
            level_paths = (
                diagram.paths_at_level(j) if j < n else [tuple(range(1, n + 1))]
            )
            pools.append(
                list(itertools.combinations_with_replacement(level_paths, count))
            )
        weights = set()
        for combo in itertools.product(*pools):
            total = None
            for group in combo:
                for p in group:
                    beta = exponent_vector(p, n)
                    total = beta if total is None else add_patterns(total, beta)
            if is_gc_pattern(phi(total)):
                weights.add(total)
        assert len(weights) == len(points)
        assert {phi(wt) for wt in weights} == set(points)
    report(6, "weight decomposition: #lattice points = #weights with phi a "
              "bijection on Lambda(2;4), lam=(2,2,0,0) and Lambda(1,2;3), lam=(2,1,0)")


def test_criterion_7_anticanonical():
    expectations = {
        (4, 7): sorted(["1,2,3,7", "1,2,6,7", "1,5,6,7", "4,5,6,7",
                        "3,4,5,6", "2,3,4,5", "1,2,3,4"]),
    }
    for cuts_n in [(4, 7), (3, 5, 8), (1, 2, 3, 4)]:
        shape = ParabolicShape(cuts_n[:-1], cuts_n[-1])
        d = LadderDiagram(shape)
        paths = d.special_paths()
        b = shape.bounds
        assert len(paths) == sum(b[i + 1] - b[i - 1] for i in range(1, shape.k + 1))
        assert len(set(paths)) == (
            shape.n + shape.cuts[-1] - shape.cuts[0]
        )
        if cuts_n in expectations:
            assert sorted(",".join(map(str, p)) for p in paths) == expectations[cuts_n]
    report(7, "anti-canonical: special-path counts match on (4;7), (3,5;8), "
              "(1,2,3;4); the (4;7) list is the expected seven paths")


def test_criterion_8_kogan_vectors():
    start = time.monotonic()
    d6 = LadderDiagram(ParabolicShape.complete(6))
    v = Permutation.from_word([4, 2, 3, 5, 4, 3, 5], 6)
    w = Permutation.from_word([3, 1, 2, 4, 3, 5, 4, 3, 5], 6)
    w0 = longest_element(6)

    dual_face = face_from_positions(d6, [2, 3, 4, 5, 8, 9, 12], dual=True)
    assert dual_face.word == (2, 3, 4, 5, 3, 4, 3)
    assert dual_face.perm == v and dual_face.reduced

    kogan_face = face_from_positions(d6, [2, 3, 4, 5, 8, 9], dual=False)
    assert kogan_face.word == (4, 3, 2, 1, 3, 2)
    assert kogan_face.perm == w0 * w and kogan_face.reduced

    assert [f.edges for f in enumerate_reduced(d6, v, dual=True)] == [dual_face.edges]
    assert [f.edges for f in enumerate_reduced(d6, w0 * w, dual=False)] == [
        kogan_face.edges
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(8, f"Kogan vectors: both subword faces reproduce and are unique "
              f"in Fl6 ({elapsed:.2f}s < 1min)")


def test_criterion_9_property_suite():
    # distributive lattice laws for paths at every cut level, n <= 6
    for cuts_n in [(2, 4), (2, 6), (3, 6), (1, 2, 3, 4), (2, 4, 6)]:
        d = LadderDiagram(ParabolicShape(cuts_n[:-1], cuts_n[-1]))
        for level in d.shape.cuts:
            paths = d.paths_at_level(level)
            for p, q in itertools.combinations(paths, 2):
                assert path_join(p, path_meet(p, q)) == p
                assert path_meet(p, path_join(p, q)) == p
                assert path_leq(path_meet(p, q), p) and path_leq(q, path_join(p, q))
            for p, q, r in itertools.islice(itertools.combinations(paths, 3), 300):
                lhs = path_meet(p, path_join(q, r))
                assert lhs == path_join(path_meet(p, q), path_meet(p, r))

    # fast dimension equals the vertex-rank oracle on the closure of the
    # facet-intersection sweep for the three stated shapes
    for poly in (make(2, 4), make(2, 5), make(1, 2, 3, 4)):
        seen = {whole_face(poly)}
        frontier = [whole_face(poly)]
        while frontier:
            new = []
            for f in frontier:
                for e in poly.diagram.effective_edges:
                    g = intersect(poly, f, facet_face(poly, e))
                    if not g.is_empty and g not in seen:
                        seen.add(g)
                        new.append(g)
            frontier = new
        for f in seen:
            assert f.dim == face_dimension_by_rank(poly, f)

    # the two structure-constant oracles agree on all triples
    for (m, n) in ((2, 4), (2, 5), (3, 6)):
        parts = box_partitions(m, n - m)
        for mu, nu, eta in itertools.product(parts, repeat=3):
            if sum(eta) != sum(mu) + sum(nu):
                continue
            assert gr_structure_constant(mu, nu, eta, m, n) == structure_constant(
                [grassmannian_perm(mu, m, n), grassmannian_perm(nu, m, n)],
                grassmannian_perm(eta, m, n),
            )

    # identity, recursion and splitting moves preserve constants on all of S4
    for t in all_triples(4):
        base = structure_constant([t[0], t[1]], t[2])
        for (a, b, c) in apply_identities(t):
            assert structure_constant([a, b], c) == base
        for i in (1, 2, 3):
            res = recursion_step(t, i)
            if res.kind == "step":
                a, b, c = res.triple
                assert structure_constant([a, b], c) == base
            elif res.kind == "zero":
                assert base == 0
        split = split_by_star(t)
        assert structure_constant(list(split[:-1]), split[-1]) == base
    report(9, "property suite: lattice laws (n<=6), dimension fast path == "
              "rank oracle, both oracles agree, all S4 moves preserve constants")
