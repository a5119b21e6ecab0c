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
        "closure-key-drops-pins", GC,
        "        return tuple(pins.get(r) or blocks.setdefault(r, len(blocks) + 1) for r in reach[:nb])\n",
        "        return tuple(blocks.setdefault(r, len(blocks) + 1) for r in reach[:nb])\n",
        ("tests/test_face_masks.py::test_closure_key_matches_union_find_on_vertices",),
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
        "    verts = [Face(poly, m) for m in tight]\n",
        "    verts = [Face(poly, m) for m in sorted(tight)]\n",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "evaluate-skips-pair-scan", "src/gcschub/certify.py",
        "    pair = _pair_on_one_face(tight, masks)\n",
        "    pair = None\n",
        ("tests/test_certify.py::TestEvaluate::test_positive_dimension_reported",),
    ),
    Mutant(
        "pair-scan-common-bits-by-or", "src/gcschub/certify.py",
        "            common = a & tight[j]\n",
        "            common = a | tight[j]\n",
        ("tests/test_evaluate_bitsets.py::test_pair_scan_matches_facet_reference",),
    ),
    Mutant(
        "row-skips-one-divisor", "src/gcschub/pluecker.py",
        "                bits &= union\n",
        "                bits &= union if masks else bits\n",
        ("tests/test_certify.py::TestEvaluate::test_every_piece_cached_under_its_pair",),
    ),
    Mutant(
        "fold-or-drops-last-facet", GC,
        "            for e in self.diagram.effective_edges_on(path):\n",
        "            for e in self.diagram.effective_edges_on(path)[:-1]:\n",
        ("tests/test_evaluate_bitsets.py::test_every_piece_holds_the_vertices_of_the_reference_faces",),
    ),
    Mutant(
        "divisor-table-keyed-by-level", GC,
        "        row = self._divisors.get(path)\n"
        "        if row is None:\n"
        "            table = self.vertex_bitsets()[1]\n"
        "            union = mask = 0\n"
        "            for e in self.diagram.effective_edges_on(path):\n"
        "                union |= table[e]\n"
        "                mask |= self._facets[e]\n"
        "            row = self._divisors[path] = (union, mask)\n",
        "        row = self._divisors.get(len(path))\n"
        "        if row is None:\n"
        "            table = self.vertex_bitsets()[1]\n"
        "            union = mask = 0\n"
        "            for e in self.diagram.effective_edges_on(path):\n"
        "                union |= table[e]\n"
        "                mask |= self._facets[e]\n"
        "            row = self._divisors[len(path)] = (union, mask)\n",
        ("tests/test_face_masks.py::test_divisor_table_matches_face_fold",),
    ),
    Mutant(
        "piece-table-keyed-by-u", GC,
        "        key = (u.window, v.window)\n",
        "        key = u.window\n",
        ("tests/test_gc_polytope.py::TestPieces::test_piece_is_built_once_under_both_windows",),
    ),
    Mutant(
        "evaluate-bottom-untranslated", "src/gcschub/certify.py",
        "    pieces = [(w0, min_coset_rep(",
        "    pieces = [(w0 * w0, min_coset_rep(",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "search-budget-checked-late", "src/gcschub/certify.py",
        "        if result.tried >= budget:\n",
        "        if result.tried > budget:\n",
        ("tests/test_certify.py",),
    ),
    Mutant(
        # the real reduction's target is (a-d)+(b-d), fixed by the factors,
        # so the named test reduces with a target that varies on its own
        "gr2-memo-keyed-without-target", "src/gcschub/certify.py",
        "            res = searched.get(key)\n"
        "            if res is None:\n"
        "                poly, vs, w = problem(key)\n"
        "                res = searched[key] = search(",
        "            res = searched.get(key[:3])\n"
        "            if res is None:\n"
        "                poly, vs, w = problem(key)\n"
        "                res = searched[key[:3]] = search(",
        ("tests/test_certify.py::TestGr2SweepMemo::test_the_memo_keys_the_whole_reduced_problem",),
    ),
    Mutant(
        "gr2-count-check-on-miss-only", "src/gcschub/certify.py",
        "                res = searched[key] = search(poly, vs, w, budget=budget, tiers=tiers)\n"
        "            if res.ok:\n"
        "                if res.certificate.count != oracle:\n",
        "                res = searched[key] = search(poly, vs, w, budget=budget, tiers=tiers)\n"
        "                checked = True\n"
        "            else:\n"
        "                checked = False\n"
        "            if res.ok:\n"
        "                if checked and res.certificate.count != oracle:\n",
        ("tests/test_certify.py::TestGr2SweepMemo::test_an_entry_met_again_checks_its_own_oracle",),
    ),
    Mutant(
        "sweep-resolve-stops-after-first-candidate", "src/gcschub/certify.py",
        "        for key in keys:\n",
        "        for key in keys[:1]:\n",
        ("tests/test_certify.py::TestSweepResolver::test_a_class_goes_on_to_its_next_candidate",),
    ),
    Mutant(
        "tier2-yields-repeats", "src/gcschub/certify.py",
        "                if us not in seen:\n",
        "                if True:\n",
        ("tests/test_search_reference.py::test_search_matches_reference",),
    ),
    Mutant(
        "facets-reverse-subset", GC,
        "if m & ~mask == 0]",
        "if mask & ~m == 0]",
        FACE_MASKS,
    ),
    Mutant(
        "vertices-unsorted", GC,
        "            masks.sort(key=self._keys.__getitem__, reverse=True)\n",
        "",
        FACE_MASKS,
    ),
    Mutant(
        "vertex-edge-skips-right-pairs", GC,
        "                        if b[j] == row[j + 1]:\n"
        "                            mask |= right\n",
        "",
        ("tests/test_face_masks.py::test_vertex_walk_matches_pattern_listing",),
    ),
    Mutant(
        "square-drops-a-bit", GC,
        " | bits[(j, r + 1), (j + 1, r + 1)]\n",
        "\n",
        ("tests/test_face_masks.py::test_square_masks_hold_the_pairs_of_their_cells",),
    ),
    Mutant(
        "facet-bits-read-neighbouring-column", GC,
        "digits[p - fm.bit_length()::p]",
        "digits[p + 1 - fm.bit_length()::p]",
        ("tests/test_face_masks.py::test_facet_bitsets_match_subset_test",),
    ),
    Mutant(
        "regular-counts-every-tight-pair", GC,
        "(v.mask & self._facet_union).bit_count()",
        "v.mask.bit_count()",
        ("tests/test_face_masks.py::test_regular_and_flag_tests_match_cell_values",),
    ),
    Mutant(
        "facet-union-misses-a-bit", GC,
        "        self._facet_union = sum(self._facets.values())\n",
        "        self._facet_union = sum(list(self._facets.values())[1:])\n",
        ("tests/test_face_masks.py::test_facet_is_one_pair_bit",),
    ),
    Mutant(
        "squares-empty-on-partial-flags", GC,
        "        self._squares: tuple[int, ...] | None = None\n",
        "        self._squares: tuple[int, ...] | None = ()\n",
        ("tests/test_face_masks.py::test_square_masks_by_shape",),
    ),
    Mutant(
        "vertex-bitsets-list-faces", GC,
        "            self._vertex_masks()\n",
        "            self.vertices()\n",
        ("tests/test_face_masks.py::test_vertex_bitsets_build_no_face",),
    ),
    Mutant(
        "dual-named-face-pinned-to-b", GC,
        "((c, r), (1, n - m + 1))",
        "((c, r), (m + 1, 1))",
        ("tests/test_face_masks.py::test_named_faces_match_pinned_boxes",),
    ),
    Mutant(
        "delta-k-pins-box-to-a", GC,
        "((2, 1), (3, 1))",
        "((2, 1), (1, self.n - 1))",
        ("tests/test_face_masks.py::test_delta_k_face_matches_merge_list",),
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
        "star-block-not-strict", "src/gcschub/weyl.py",
        "        if top > i:\n",
        "        if top >= i:\n",
        ("tests/test_weyl.py::TestStarFactorize::test_matches_reduced_word_replay",),
    ),
    Mutant(
        "bruhat-rank-mismatch-valueerror", "src/gcschub/weyl.py",
        'raise InputError(f"rank mismatch: {u.n} vs {w.n}")',
        'raise ValueError(f"rank mismatch: {u.n} vs {w.n}")',
        ("tests/test_certify.py::TestSearch::test_factor_of_another_rank_is_input_error",),
    ),
    Mutant(
        "path-leq-drops-level", REFERENCE_FACES,
        "    return len(p) >= len(q) and all(",
        "    return all(",
        ("tests/test_ladder.py",),
    ),
    Mutant(
        "delta-uv-ignores-translation", "src/gcschub/pluecker.py",
        "poly.divisor(u.image(i))",
        "poly.divisor(i)",
        ("tests/test_pluecker.py::TestDeltaUV::test_row_matches_reference_vanishing_set_and_face_fold",),
    ),
    Mutant(
        "vanishing-keeps-paths-below", "src/gcschub/pluecker.py",
        "            if any(map(gt, ref, i)):\n",
        "            if any(map(gt, i, ref)):\n",
        ("tests/test_pluecker.py::TestDeltaUV::test_F_mu_for_all_mu",),
    ),
    Mutant(
        # ge is not imported by the module, so the mutant spells it out
        "vanishing-step-not-strict", "src/gcschub/pluecker.py",
        "            if any(map(gt, ref, i)):\n",
        "            if any(map(lambda a, b: a >= b, ref, i)):\n",
        ("tests/test_pluecker.py::TestDeltaUV::test_row_matches_reference_vanishing_set_and_face_fold",),
    ),
    Mutant(
        "partition-drop-vanishing-merge", COEFFS,
        "                if up != both:\n                    partners.append(zero_root)\n",
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
        # dropping the cover scan's ``between`` bound is equivalent: every
        # length-lowering reflection leads below, so the closure is the same
        "bruhat-table-covers-at-first-position-only", COEFFS,
        "                for i in range(1, n):\n                    between = 0\n",
        "                for i in range(1, 2):\n                    between = 0\n",
        COEFFS_TESTS,
    ),
    Mutant(
        "partition-step-index-ignores-v", COEFFS,
        "partners.append(first[right_mul[i][w]][right_mul[i][u]] + rank[v])",
        "partners.append(first[right_mul[i][w]][right_mul[i][u]])",
        COEFFS_TESTS,
    ),
    Mutant(
        "partition-drop-w0-symmetry", COEFFS,
        ",\n                        first[w0_left[v]][u] + rank[w0_left[w]]]\n",
        "]\n",
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
        "oracle-degree-skips-last-factor", COEFFS,
        "        degree += _inversions(x)\n",
        "        degree += _inversions(x) if len(windows) < len(us) else 0\n",
        ("tests/test_coeffs.py::TestOracleFastPath::test_matches_reference",),
    ),
    Mutant(
        "row-drop-positivity-check", COEFFS,
        "    if any(c < 0 for c in row.values()):\n",
        "    if False:\n",
        COEFFS_TESTS,
    ),
    Mutant(
        "lr-drop-lattice-test", COEFFS,
        "        if counts[v] == nu[v - 1] or (v > 1 and counts[v] == counts[v - 1]):\n",
        "        if counts[v] == nu[v - 1]:\n",
        ("tests/test_coeffs.py::TestLROracle::test_matches_reference",),
    ),
    Mutant(
        "lr-column-entry-may-equal-above", COEFFS,
        "    for v in range(grid[r - 1][c] + 1 if r else 1, hi + 1):\n",
        "    for v in range(max(grid[r - 1][c], 1) if r else 1, hi + 1):\n",
        ("tests/test_coeffs.py::TestLROracle::test_matches_reference",),
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
