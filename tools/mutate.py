"""Mutation checks of the fast paths and the oracle.

Each mutant replaces one unique piece of text in one source file.  The
harness copies the repository once into a temporary directory, applies one
mutant at a time to the copy, and runs the test files expected to fail,
stopping at the first failure.  A mutant is killed when those tests fail,
and a timeout counts as killed; it survives when they pass.  An equivalent
mutant changes no result on the supported range, is recorded with its
reason, and is expected to survive.

Usage, from the repository root (not part of the tier-1 tests):

    python tools/mutate.py [--timeout SECONDS] [NAME ...]

With no names every mutant runs, one at a time.  Exits 0 when every mutant
is killed, or survives as recorded equivalent.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None


GC = "src/gcschub/gc_polytope.py"
COEFFS = "src/gcschub/coeffs.py"
REFERENCE_FACES = "tests/reference_faces.py"
FACE_MASKS = ("tests/test_face_masks.py",)
BITSETS = ("tests/test_evaluate_bitsets.py",)
COEFFS_TESTS = ("tests/test_coeffs.py",)

MUTANTS = (
    Mutant(
        "saturate-drop-back-edge", GC,
        "            reach[b] |= 1 << a\n", "",
        FACE_MASKS,
    ),
    Mutant(
        "saturate-drop-emptiness", GC,
        "        if len(set(reach[len(self.boxes):])) != self.num_values:\n"
        "            return -1\n",
        "",
        FACE_MASKS,
    ),
    Mutant(
        "checked-drop-merge-check", GC,
        "            if any(values[a] != values[b] for a, b in merges):\n",
        "            if False:\n",
        FACE_MASKS,
    ),
    Mutant(
        "meet-skip-first-set", REFERENCE_FACES,
        "    for faces in sorted(face_sets, key=len):\n",
        "    for faces in sorted(face_sets, key=len)[1:]:\n",
        BITSETS + FACE_MASKS,
    ),
    Mutant(
        "antichain-keeps-contained-faces", REFERENCE_FACES,
        "        if not any(contains(g, f) for g in kept):\n",
        "        if True:\n",
        ("tests/test_gc_polytope.py", "tests/test_kogan.py", "tests/test_pluecker.py",
         "tests/test_acceptance.py::test_criterion_5_degeneration_combinatorics"),
    ),
    Mutant(
        "evaluate-vertices-in-mask-order", "src/gcschub/certify.py",
        "    verts = poly.vertices_in(inter)\n",
        "    verts = sorted(poly.vertices_in(inter))\n",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "evaluate-skips-pair-scan", "src/gcschub/certify.py",
        "    pair = _pair_on_one_face(inter, divisors)\n",
        "    pair = None\n",
        ("tests/test_certify.py::TestEvaluate::test_positive_dimension_reported",),
    ),
    Mutant(
        "fold-or-drops-last-facet", "src/gcschub/pluecker.py",
        "        for f in facets:\n            union |= f\n",
        "        for f in facets[:-1]:\n            union |= f\n",
        ("tests/test_evaluate_bitsets.py::test_every_piece_holds_the_vertices_of_the_reference_faces",),
    ),
    Mutant(
        "evaluate-bottom-untranslated", "src/gcschub/certify.py",
        "    pieces = [(w0, min_coset_rep(",
        "    pieces = [(w0 * w0, min_coset_rep(",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "search-budget-checked-late", "src/gcschub/certify.py",
        "            if result.tried >= budget or attempt(us):\n",
        "            if result.tried > budget or attempt(us):\n",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "facets-reverse-subset", GC,
        "if m & ~mask == 0]",
        "if mask & ~m == 0]",
        FACE_MASKS,
    ),
    Mutant(
        "vertices-unsorted", GC,
        "            keys.sort(reverse=True)\n",
        "",
        FACE_MASKS,
    ),
    Mutant(
        "facet-cache-holds-face", GC,
        "[self.diagram.edge_cells(e)]).mask\n        return self._facets\n",
        "[self.diagram.edge_cells(e)])\n"
        "        return {e: face.mask for e, face in self._facets.items()}\n",
        ("tests/test_gc_polytope.py::test_no_reference_cycles",),
    ),
    Mutant(
        "vertices-prune-forced", GC,
        "        (row[j],) if row[j] == row[j + 1] else (row[j], row[j + 1])\n",
        "        () if row[j] == row[j + 1] else (row[j], row[j + 1])\n",
        FACE_MASKS,
    ),
    Mutant(
        "vertices-drop-anchor", GC,
        "        (row[j],) if row[j] == row[j + 1] else (row[j], row[j + 1])\n",
        "        range(row[j + 1], row[j] + 1)\n",
        FACE_MASKS,
    ),
    Mutant(
        "kogan-drop-prefix-test", "src/gcschub/kogan.py",
        "        if grown == len(taken) + 1 and length(",
        "        if length(",
        ("tests/test_kogan.py",),
    ),
    Mutant(
        "simple-reflection-unchecked", "src/gcschub/weyl.py",
        "        if not 1 <= i <= self.n - 1:\n",
        "        if False:\n",
        ("tests/test_weyl.py",),
    ),
    Mutant(
        "path-leq-drops-level", "src/gcschub/ladder.py",
        "    return len(p) >= len(q) and all(",
        "    return all(",
        ("tests/test_ladder.py",),
    ),
    Mutant(
        "delta-uv-ignores-translation", "src/gcschub/pluecker.py",
        "sorted(u.image(i) for i in vanishing[level])",
        "sorted(i for i in vanishing[level])",
        ("tests/test_pluecker.py",),
    ),
    Mutant(
        "vanishing-keeps-paths-below", "src/gcschub/pluecker.py",
        "            if not path_leq(ref, p):\n",
        "            if not path_leq(p, ref):\n",
        ("tests/test_pluecker.py::TestVanishing::test_levelwise_rule_vs_fixed_point_brute_force",),
    ),
    Mutant(
        "partition-drop-vanishing-merge", COEFFS,
        "            if vanishes:\n                partners.append(zero_root)\n",
        "",
        COEFFS_TESTS,
    ),
    Mutant(
        "partition-union-by-larger-root", COEFFS,
        "            if b < a:\n"
        "                uf[a] = b\n"
        "                a = b\n"
        "            elif a < b:\n",
        "            if b > a:\n"
        "                uf[a] = b\n"
        "                a = b\n"
        "            elif a > b:\n",
        ("tests/test_coeffs.py::TestModifiedPartition::test_matches_reference",
         "tests/test_coeffs.py::TestModifiedPartition::test_matches_closure_reference"),
        equivalent="for n <= 5 the partition has two classes, the regular one holding "
        "triple 0 and the zero one the sentinel, so the largest roots list them in the same order",
    ),
    Mutant(
        "partition-link-smaller-root-under-larger", COEFFS,
        "            if b < a:\n"
        "                uf[a] = b\n"
        "                a = b\n",
        "            if b < a:\n"
        "                uf[b] = a\n",
        ("tests/test_coeffs.py::TestModifiedPartition::test_matches_reference",),
    ),
    Mutant(
        "bruhat-table-first-prefix-only", COEFFS,
        "tuple(x for j in range(1, n) for x in sorted(win[:j]))",
        "tuple(x for j in range(1, 2) for x in sorted(win[:j]))",
        COEFFS_TESTS,
    ),
    Mutant(
        "sntables-index-ignores-v", COEFFS,
        "        return self._first[w][u] + self._rank[v]\n",
        "        return self._first[w][u]\n",
        COEFFS_TESTS,
    ),
    Mutant(
        "partition-drop-w0-symmetry", COEFFS,
        "                        index(u, w0_left[w], w0_left[v]), *steps]\n",
        "                        *steps]\n",
        COEFFS_TESTS,
        equivalent="for n <= 5 the other moves already give the same classes "
        "(2 on S_5); kept as a symmetry of the constants",
    ),
    Mutant(
        "traced-function-left-uncalled", COEFFS,
        "def build_modified_partition(",
        "def recursion_step():\n    pass\n\n\ndef build_modified_partition(",
        ("tests/test_bench_selftest.py",),
    ),
    Mutant(
        "row-drop-transition-sum", COEFFS,
        "    for t, sign in _monk(v, r):\n"
        "        if sign < 0:\n"
        "            for z, c in _row(t, y).items():\n"
        "                out[z] = out.get(z, 0) + c\n",
        "",
        COEFFS_TESTS,
    ),
    Mutant(
        "monk-drop-between-bound", COEFFS,
        "        if zr < z[b - 1] < between:\n"
        "            between = z[b - 1]\n"
        "            terms.append((_swap(z, r, b), 1))\n"
        "    between = 0\n"
        "    for a in range(r - 1, 0, -1):\n"
        "        if between < z[a - 1] < zr:\n",
        "        if zr < z[b - 1]:\n"
        "            between = z[b - 1]\n"
        "            terms.append((_swap(z, r, b), 1))\n"
        "    between = 0\n"
        "    for a in range(r - 1, 0, -1):\n"
        "        if z[a - 1] < zr:\n",
        COEFFS_TESTS,
    ),
    Mutant(
        "monk-keep-terms-outside-sn", COEFFS,
        "            terms.append((_swap(z, r, b), 1))\n    between = 0\n",
        "            terms.append((_swap(z, r, b), 1))\n"
        "    if between == len(z) + 1:\n"
        "        terms.append((z[:r - 1] + (len(z) + 1,) + z[r:] + (zr,), 1))\n"
        "    between = 0\n",
        COEFFS_TESTS,
    ),
    Mutant(
        "fold-skips-third-factor", COEFFS,
        "    for y in windows[2:]:\n",
        "    for y in windows[3:]:\n",
        ("tests/test_coeffs.py::TestRowTable",),
    ),
    Mutant(
        "row-drop-positivity-check", COEFFS,
        "    if any(c < 0 for c in row.values()):\n",
        "    if False:\n",
        COEFFS_TESTS,
    ),
)


def run(mutant: Mutant, copy: str, timeout: float) -> tuple[str, float]:
    """Apply the mutant to the copy, run its tests, restore the file.
    Returns the verdict and the seconds the tests took."""
    target = os.path.join(copy, mutant.path)
    with open(target) as fh:
        original = fh.read()
    if original.count(mutant.old) != 1:
        return "bad-mutant", 0.0
    with open(target, "w") as fh:
        fh.write(original.replace(mutant.old, mutant.new))
    # no bytecode cache, so that no run can load a stale mutant
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
        verdict = {0: "survived", 1: "killed"}.get(proc.returncode, f"error({proc.returncode})")
    except subprocess.TimeoutExpired:
        verdict = "timeout"
    finally:
        with open(target, "w") as fh:
            fh.write(original)
    return verdict, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)

    ok = True
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "results")
        for part in ("src", "tests", "bench", "pyproject.toml"):
            src = os.path.join(ROOT, part)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(copy, part), ignore=ignore)
            else:
                shutil.copy2(src, os.path.join(copy, part))
        for mutant in chosen:
            verdict, seconds = run(mutant, copy, args.timeout)
            if mutant.equivalent:
                good = verdict == "survived"
            else:
                good = verdict in ("killed", "timeout")
            ok &= good
            note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            print(f"{'ok ' if good else 'BAD'} {mutant.name:34s} {verdict:10s} {seconds:7.1f} s{note}",
                  flush=True)
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.1f} s: {'all as expected' if ok else 'NOT all as expected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
