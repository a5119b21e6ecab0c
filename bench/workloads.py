"""The benchmark's certification workloads.

Each workload has a set-up step, which builds the inputs and the
LadderDiagram/Polytope objects, and a run step, which makes every library
call of the workload and checks every output.  The run step returns the
outputs in a canonical order, independent of the seed, for the digest.

The library is called through module attributes (``certify.search``, not a
name imported from it), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from time import perf_counter

from gcschub import certify, cli, coeffs, kogan
from gcschub.gc_polytope import Polytope
from gcschub.ladder import LadderDiagram
from gcschub.weyl import ParabolicShape, Permutation, grassmannian_perm, longest_element


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle or expected count."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


class Outcome:
    """Jobs attempted, jobs failed and the outputs of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list = []
        self.search_ms: list[float] = []

    def job(self, name, fn, weight: int = 1):
        """Run one job; an exception or failed check fails ``weight`` jobs."""
        self.attempted += weight
        try:
            fn()
        except Exception as exc:  # every failure is counted, none is skipped
            self.failures.extend([f"{name}: {type(exc).__name__}: {exc}"] * weight)


def _box_partitions(m: int, width: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(width + 1), repeat=m)
            if all(a >= b for a, b in zip(p, p[1:]))]


def _windows(perms) -> list[list[int]]:
    return [list(p.window) for p in perms]


def _cli(*args: str) -> str:
    """Standard output of one in-process ``gcschub`` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=list(args), standalone_mode=False)
    return buf.getvalue()


# -- gr_chevalley ------------------------------------------------------------------


def _chevalley_jobs(shapes):
    return [(m, n, mu, eta) for m, n in shapes
            for mu in _box_partitions(m, n - m)
            for eta, _ in coeffs.chevalley(mu, m, n)]


def chevalley_setup(rng: random.Random, shapes=((3, 7), (4, 7))):
    polys = {(m, n): Polytope(LadderDiagram(ParabolicShape((m,), n))) for m, n in shapes}
    jobs = _chevalley_jobs(shapes)
    rng.shuffle(jobs)
    return polys, jobs


def chevalley_run(state, out: Outcome, expected: int = 120):
    polys, jobs = state
    results = []

    def one(m, n, mu, eta):
        one_box = (1,) + (0,) * (m - 1)
        vs = [grassmannian_perm(one_box, m, n), grassmannian_perm(mu, m, n)]
        w = grassmannian_perm(eta, m, n)
        start = perf_counter()
        res = certify.search(polys[(m, n)], vs, w, tiers=(2,))
        out.search_ms.append((perf_counter() - start) * 1e3)
        check(res.ok, f"no certificate for Gr({m},{n}) {mu} -> {eta}")
        cert = res.certificate
        check(cert.count == cert.oracle == 1,
              f"Gr({m},{n}) {mu} -> {eta}: count {cert.count}, oracle {cert.oracle}")
        results.append([m, n, list(mu), list(eta), _windows(cert.us),
                        [list(v.values) for v in cert.vertices]])

    out.job("jobs", lambda: check(len(jobs) == expected, f"{len(jobs)} jobs, not {expected}"))
    for m, n, mu, eta in jobs:
        out.job(f"search Gr({m},{n}) {mu}->{eta}", lambda: one(m, n, mu, eta))
    out.outputs = sorted(results)


# -- gr2_sweep ---------------------------------------------------------------------


def seed_only_setup(rng: random.Random):
    """Set-up of a workload that builds its objects inside the timed call."""
    return rng


def gr2_run(rng, out: Outcome, n: int = 8):
    report = None

    def sweep():
        nonlocal report
        report = certify.sweep_gr2(n)

    out.job(f"sweep_gr2({n})", sweep)
    if report is None:
        out.job("entries", lambda: check(False, "sweep raised"), weight=894)
        return
    entries = list(report.entries)
    by_status = [e["status"] for e in entries]
    out.job("all_resolved", lambda: check(report.all_resolved, "unresolved entries"))
    out.job("counts", lambda: check(
        (len(entries), by_status.count("certified"), by_status.count("zero")) == (894, 462, 432),
        f"{len(entries)} entries, {by_status.count('certified')} certified, "
        f"{by_status.count('zero')} zero"))

    def lr_check(entry):
        lam, mu, eta = entry["triple"]
        lr = coeffs.gr_structure_constant(lam, mu, eta, 2, n)
        check(entry["N"] == lr, f"{entry['triple']}: N {entry['N']}, LR oracle {lr}")

    # every entry is checked against the Littlewood-Richardson oracle, which
    # is independent of the Schubert-polynomial oracle inside the sweep
    order = list(range(len(entries)))
    rng.shuffle(order)
    for i in order:
        out.job(f"entry {entries[i]['triple']}", lambda: lr_check(entries[i]))
    out.outputs = [[list(map(list, e["triple"])), e["status"], e["N"]] for e in entries]


# -- fl5_partition -----------------------------------------------------------------


def fl5_run(rng, out: Outcome, n: int = 5, expected: int = 74199):
    classes = None

    def build():
        nonlocal classes
        classes = coeffs.build_modified_partition(n, bound=n)

    out.job(f"build_modified_partition({n})", build)
    if classes is None:
        out.job("triples", lambda: check(False, "partition raised"), weight=expected)
        return
    members = []
    summary = []
    for cls in classes:
        rep = cls.members[0]
        const = 0 if cls.kind == "zero" else coeffs.structure_constant([rep[0], rep[1]], rep[2])
        members.extend((t, const) for t in cls.members)
        summary.append([cls.kind, len(cls.members), _windows(rep), len(cls.extended), const])
    out.job("triples", lambda: check(len(members) == expected,
                                     f"{len(members)} triples, not {expected}"))
    rng.shuffle(members)
    mismatches = []

    def triple_check(t, const):
        got = coeffs.structure_constant([t[0], t[1]], t[2])
        if got != const:
            mismatches.append(t)
            raise CheckFailed(f"{t}: oracle {got}, class constant {const}")

    for t, const in members:
        out.job("triple", lambda: triple_check(t, const))
    out.outputs = [summary, sorted(_windows(t) for t in mismatches)]


# -- fl6_flagship ------------------------------------------------------------------


def _fl6_words():
    def word(*letters):
        return Permutation.from_word(list(letters), 6)

    return word(4, 2, 3, 5, 4, 3, 5), word(3, 1, 2, 4, 3, 5, 4, 3, 5)


def fl6_setup(rng: random.Random):
    poly = Polytope(LadderDiagram(ParabolicShape.complete(6)))
    jobs = ["flagship", "cli_vertices", "fl4_sweep", "kogan"]
    rng.shuffle(jobs)
    return poly, jobs


def fl6_run(state, out: Outcome):
    poly, jobs = state
    diagram = poly.diagram
    v, w = _fl6_words()
    results = {}

    def flagship():
        # criterion 1: the commuting split (s2, s4, v; w) of the Gr(3,6)
        # triple, translated by the Grassmannian permutations of its paths
        vs = [Permutation.transposition(2, 6), Permutation.transposition(4, 6), v]
        us = [Permutation((2, 3, 1, 4, 5, 6)), Permutation((1, 4, 5, 6, 2, 3)),
              Permutation.identity(6)]
        cert = certify.evaluate(poly, vs, w, us)
        check(cert.ok, f"flagship evaluate failed: {cert}")
        check(cert.count == cert.oracle == 2 == len(cert.vertices),
              f"flagship count {cert.count}, oracle {cert.oracle}")
        check(all(poly.is_regular(x) and poly.in_VX(x) for x in cert.vertices),
              "flagship vertices are not regular flag-variety vertices")
        results["flagship"] = [list(x.values) for x in cert.vertices]

    def cli_vertices():
        header, *rows = _cli("vertices", "--shape", "1,2,3,4,5,6", "--regular-only").splitlines()
        printed = {tuple(int(x[1:]) for x in row.split("\t")) for row in rows}
        verts = poly.vertices()
        regular = {x.values for x in verts if poly.is_regular(x)}
        on_flag = {x.values for x in verts if poly.in_VX(x)}
        check((len(verts), len(rows), len(regular)) == (4884, 720, 720),
              f"{len(verts)} vertices, {len(rows)} printed, {len(regular)} regular")
        check(printed == regular == on_flag, "regular, printed and flag-variety vertices differ")
        results["cli_vertices"] = [header, sorted(printed)]

    def fl4_sweep():
        report = certify.sweep_complete_flag(4)
        check(report.all_resolved, "Fl4 sweep left classes unresolved")
        check(sum(c.size for c in report.classes) == 1115, "Fl4 sweep misses triples")
        for c in report.classes:
            check(c.kind == "zero" or (c.witness is not None and c.witness.ok),
                  f"Fl4 class {c.representative} without a valid witness")
        results["fl4_sweep"] = [[c.kind, c.size, _windows(c.representative),
                                 _windows(c.witness.us) if c.witness else None]
                                for c in report.classes]

    def kogan_faces():
        # criterion 8: both subword faces reproduce and are the unique
        # reduced faces of their permutation
        w0 = longest_element(6)
        dual = kogan.face_from_positions(diagram, [2, 3, 4, 5, 8, 9, 12], dual=True)
        plain = kogan.face_from_positions(diagram, [2, 3, 4, 5, 8, 9], dual=False)
        check(dual.word == (2, 3, 4, 5, 3, 4, 3) and dual.perm == v and dual.reduced,
              f"dual Kogan face {dual.word}")
        check(plain.word == (4, 3, 2, 1, 3, 2) and plain.perm == w0 * w and plain.reduced,
              f"Kogan face {plain.word}")
        found_dual = kogan.enumerate_reduced(diagram, v, dual=True)
        found = kogan.enumerate_reduced(diagram, w0 * w, dual=False)
        check([f.edges for f in found_dual] == [dual.edges], "dual Kogan face not unique")
        check([f.edges for f in found] == [plain.edges], "Kogan face not unique")
        results["kogan"] = [dual.to_json(), plain.to_json()]

    table = {"flagship": flagship, "cli_vertices": cli_vertices,
             "fl4_sweep": fl4_sweep, "kogan": kogan_faces}
    for name in jobs:
        out.job(name, table[name])
    out.outputs = sorted(results.items())


# -- self-test instance ------------------------------------------------------------


def selftest_setup(rng: random.Random):
    return chevalley_setup(rng, shapes=((3, 6),))


def selftest_run(state, out: Outcome):
    """A small instance that reaches every traced function: Gr(3,6)
    Chevalley, the Fl4 sweep, and Fl4 vertices and Kogan faces through the
    command line."""
    chevalley_run(state, out, expected=len(state[1]))

    def fl4():
        check(certify.sweep_complete_flag(4).all_resolved, "Fl4 sweep left classes unresolved")
        listing = _cli("vertices", "--shape", "1,2,3,4", "--regular-only").splitlines()
        check(len(listing) == 25, f"{len(listing) - 1} regular Fl4 vertices, not 24")
        check(_cli("kogan", "--shape", "1,2,3,4", "--target", "3,4,1,2").strip() != "[]",
              "no Kogan face for 3412")

    out.job("fl4", fl4)


WORKLOADS = {
    "gr_chevalley": (chevalley_setup, chevalley_run),
    "gr2_sweep": (seed_only_setup, gr2_run),
    "fl5_partition": (seed_only_setup, fl5_run),
    "fl6_flagship": (fl6_setup, fl6_run),
    "selftest": (selftest_setup, selftest_run),
}
