import ast
import errno
import itertools
import json
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gcschub.cli import main
from gcschub.weyl import ParabolicShape


@pytest.fixture
def run():
    runner = CliRunner()

    def invoke(*args):
        return runner.invoke(main, list(args))

    return invoke


class TestConstant:
    def test_gr36_partitions(self, run):
        res = run("constant", "--shape", "3,6", "--mu", "(2,1,0)",
                  "--nu", "(2,1,0)", "--eta", "(3,2,1)")
        assert res.exit_code == 0
        assert "N\t2" in res.output

    def test_trivial_flag(self, run):
        res = run("constant", "--shape", "1,2,3,4", "--u", "id",
                  "--v", "2,1,3,4", "--w", "2,1,3,4")
        assert res.exit_code == 0
        assert "N\t1" in res.output

    def test_degree_mismatch_prints_zero(self, run):
        res = run("constant", "--shape", "1,2,3,4", "--u", "2,1,3,4",
                  "--v", "2,1,3,4", "--w", "2,1,3,4")
        assert res.exit_code == 0
        assert "N\t0" in res.output

    def test_parse_failure(self, run):
        res = run("constant", "--shape", "1,2,3,4", "--u", "9,9",
                  "--v", "id", "--w", "id")
        assert res.exit_code != 0

    def test_json_format(self, run):
        res = run("constant", "--shape", "2,4", "--mu", "(1,0)", "--nu", "(1,0)",
                  "--eta", "(1,1)", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["N"] == 1

    def test_word_input(self, run):
        res = run("constant", "--shape", "1,2,3,4", "--u", "s1", "--v", "s2",
                  "--w", "s1*s2")
        assert res.exit_code == 0
        assert "N\t1" in res.output


class TestPolytopeCmd:
    def test_gr24_info(self, run):
        res = run("polytope", "--shape", "2,4")
        assert res.exit_code == 0
        assert "dim\t4" in res.output
        assert "vertices\t6" in res.output
        assert "facets\t6" in res.output

    def test_fl4_regular(self, run):
        res = run("polytope", "--shape", "1,2,3,4")
        assert "regular_vertices\t24" in res.output


class TestCertifyCmd:
    def test_certify_and_store(self, run, tmp_path):
        store = tmp_path / "store.jsonl"
        res = run("certify", "--shape", "2,4", "--v", "1,3,2,4", "--v", "1,3,2,4",
                  "--w", "2,3,1,4", "--u", "1,3,2,4", "--u", "id",
                  "--store", str(store))
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["status"] == "certified" and payload["count"] == 1
        lines = [json.loads(l) for l in store.read_text().splitlines()]
        assert lines[0]["schema"] == 1
        assert lines[1]["count"] == 1

    def test_search_cmd(self, run):
        res = run("search", "--shape", "2,4", "--v", "1,3,2,4", "--v", "1,3,2,4",
                  "--w", "2,3,1,4")
        assert res.exit_code == 0
        assert json.loads(res.output)["status"] == "certified"

    def test_unsupported_shape_distinct_exit(self, run):
        res = run("certify", "--shape", "1,3,4", "--v", "2,1,3,4", "--v", "id",
                  "--w", "2,1,3,4", "--u", "id", "--u", "id")
        assert res.exit_code == 3
        assert "unsupported_shape" in res.output


class TestSweepCmd:
    def test_fl4(self, run):
        res = run("sweep", "--shape", "1,2,3,4")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["summary"] == "all classes certified or zero"

    def test_gr25(self, run):
        res = run("sweep", "--shape", "2,5")
        assert res.exit_code == 0
        assert json.loads(res.output)["all_resolved"] is True

    def test_gr1(self, run):
        res = run("sweep", "--shape", "1,4")
        assert res.exit_code == 0
        assert json.loads(res.output)["all_resolved"] is True

    def test_other_shape_unsupported(self, run):
        res = run("sweep", "--shape", "1,3,4")
        assert res.exit_code == 3

    # one triple cell on every shape: entries joined by commas, elements by
    # spaces
    @pytest.mark.parametrize("shape, row", [
        ("2,4", "certified\t1\t0,0 1,0 1,0"),
        ("1,3", "certified\t1\t0 1 1"),
        ("1,2,3", "zero\t14\t1,2,3 1,3,2 2,1,3"),
    ])
    def test_detail_triple_cells(self, run, tmp_path, shape, row):
        detail = tmp_path / "detail.tsv"
        res = run("sweep", "--shape", shape, "--detail", str(detail))
        assert res.exit_code == 0, res.output
        assert row in detail.read_text().splitlines()


class TestFacesCmd:
    def test_named_face(self, run):
        res = run("faces", "--shape", "2,4", "--mu", "(1,0)")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["dim"] == 3
        assert payload["edges"]

    def test_delta_k(self, run):
        res = run("faces", "--shape", "2,5", "--delta-k", "2")
        assert res.exit_code == 0
        assert json.loads(res.output)["dim"] == 4

    def test_delta_k_needs_gr2(self, run):
        res = run("faces", "--shape", "3,6", "--delta-k", "1")
        assert res.exit_code == 3


class TestTsvFormat:
    # a container field is compact JSON, not a Python literal
    @pytest.mark.parametrize("args, field, expected", [
        (("sweep", "--shape", "2,4"), "by_status", {"certified": 21, "zero": 6}),
        (("faces", "--shape", "2,5", "--mu", "(2,0)"), "edges", ["H(2,1)", "V(2,1)"]),
        (("search", "--shape", "1,2,3,4", "--v", "2,1,3,4", "--v", "2,1,3,4",
          "--w", "3,1,2,4", "--budget", "1"), "failures", {"positive_dimension": 1}),
        (("sweep", "--shape", "2,4"), "all_resolved", True),
    ])
    def test_container_fields_parse_as_json(self, run, args, field, expected):
        res = run(*args, "--format", "tsv")
        assert res.exit_code in (0, 1), res.output
        fields = dict(line.split("\t", 1) for line in res.output.splitlines())
        assert json.loads(fields[field]) == expected
        assert " " not in fields[field]

    # so is every cell of a row, a boolean included
    def test_row_cells_parse_as_json(self, run):
        res = run("kogan", "--shape", "1,2,3", "--target", "2,1,3", "--format", "tsv")
        assert res.exit_code == 0, res.output
        assert [json.loads(c) for c in res.output.splitlines()[0].split("\t")] == [0, [1], True]


class TestKoganCmd:
    def test_positions(self, run):
        res = run("kogan", "--shape", "1,2,3,4,5,6", "--dual",
                  "--positions", "2,3,4,5,8,9,12")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["word"] == [2, 3, 4, 5, 3, 4, 3]
        assert payload["reduced"] is True

    def test_enumerate(self, run):
        res = run("kogan", "--shape", "1,2,3", "--target", "2,1,3")
        assert res.exit_code == 0
        assert len(json.loads(res.output)) >= 1


class TestAnticanonicalCmd:
    def test_gr47_figure_list(self, run):
        res = run("anticanonical", "--shape", "4,7", "--format", "json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["count"] == 7 == payload["expected_count"]
        assert sorted(payload["paths"]) == sorted(
            ["1,2,3,7", "1,2,6,7", "1,5,6,7", "4,5,6,7", "3,4,5,6", "2,3,4,5", "1,2,3,4"]
        )

    def test_counts_other_shapes(self, run):
        for shape in ("3,5,8", "1,2,3,4"):
            res = run("anticanonical", "--shape", shape, "--format", "json")
            assert res.exit_code == 0


class TestLatticePointsCmd:
    def test_count(self, run):
        res = run("lattice-points", "--shape", "2,4", "--lam", "(2,2,0,0)")
        assert res.exit_code == 0
        assert "points\t20" in res.output

    def test_decompose(self, run):
        res = run("lattice-points", "--shape", "1,2,3", "--lam", "(2,1,0)",
                  "--decompose")
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 8

    def test_decompose_points_are_arrays(self, run):
        args = ("lattice-points", "--shape", "1,2,3", "--lam", "(2,1,0)", "--decompose")
        rows = json.loads(run(*args, "--format", "json").output)
        assert rows[0] == {"point": [[0], [1, 0], [2, 1, 0]], "paths": ["2,3", "3"]}
        assert run(*args).output.splitlines()[0] == "[[0],[1,0],[2,1,0]]\t2,3;3"

    def test_bad_lambda(self, run):
        res = run("lattice-points", "--shape", "2,4", "--lam", "(2,1,0,0)")
        assert res.exit_code == 2


class TestVerticesCmd:
    def test_dump(self, run):
        res = run("vertices", "--shape", "2,4")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) == 7  # header + 6 vertices
        assert lines[0].startswith("b1_1")

    def test_regular_only(self, run):
        res = run("vertices", "--shape", "1,2,3", "--regular-only")
        assert len(res.output.strip().splitlines()) == 7  # header + 6


# each input must end in its documented exit code with a message, never a
# traceback: 2 for bad input, 3 for an unsupported shape
BAD_INPUTS = [
    (("sweep", "--shape", "1,2,3,4,5,6"), 3),
    (("constant", "--shape", "2,4", "--mu", "(3,0)", "--nu", "(1,0)", "--eta", "(2,2)"), 2),
    (("constant", "--shape", "2,4", "--mu", "(x)", "--nu", "(1,0)", "--eta", "(2,2)"), 2),
    (("kogan", "--shape", "1,2,3", "--positions", "1,99"), 2),
    (("kogan", "--shape", "1,2,3", "--positions", "0"), 2),
    (("kogan", "--shape", "1,2,3", "--positions", "1,x"), 2),
    (("faces", "--shape", "2,5", "--delta-k", "9"), 2),
    (("faces", "--shape", "2,5", "--mu", "(x)"), 2),
    (("faces", "--shape", "2,5", "--mu", "(9,0)"), 2),
    (("lattice-points", "--shape", "2,4", "--lam", "(x)"), 2),
    (("constant", "--shape", "2,4", "--u", "2,1,3,4", "--v", "1,3,2,4", "--w", "3,1,2,4"), 2),
    (("constant", "--shape", "1,2,3,4", "--u", "s0", "--v", "id", "--w", "s0"), 2),
    (("constant", "--shape", "1,2,3,4", "--u", "s-1", "--v", "id", "--w", "s3"), 2),
    (("kogan", "--shape", "1,2,3", "--target", "s5"), 2),
    (("certify", "--shape", "2,4", "--v", "1,3,2,4", "--v", "1,3,2,4",
      "--w", "2,3,1,4", "--u", "s7", "--u", "id"), 2),
    (("vertices", "--shape", "2,4", "--regular-only"), 3),
    (("search", "--shape", "2,4", "--v", "1,3,2,4", "--v", "1,3,2,4", "--w", "2,3,1,4",
      "--budget", "-1"), 2),
    (("sweep", "--shape", "1,2,3", "--budget", "0"), 2),
    (("search", "--shape", "1,3,5", "--v", "12435", "--w", "12435"), 3),
    (("kogan", "--shape", "1,2,3", "--positions", "1,1"), 2),
    (("constant", "--shape", "2,4", "--u", "1,3,2,4", "--v", "1,3,2,4", "--w", "2,3,1,4",
      "--mu", "(1,0)", "--nu", "(1,0)", "--eta", "(1,1)"), 2),
    (("constant", "--shape", "2,4", "--w", "2,3,1,4",
      "--mu", "(1,0)", "--nu", "(1,0)", "--eta", "(1,1)"), 2),
    (("faces", "--shape", "2,5", "--mu", "(1,0)", "--delta-k", "2"), 2),
    (("faces", "--shape", "2,5", "--dual", "--delta-k", "2"), 2),
    (("kogan", "--shape", "1,2,3", "--positions", "1,2", "--target", "2,1,3"), 2),
    (("lattice-points", "--shape", "1,2,3", "--lam", "(1,0,-1)", "--decompose"), 2),
]

CERTIFY_GR24 = ("certify", "--shape", "2,4", "--v", "1,3,2,4", "--v", "1,3,2,4",
                "--w", "2,3,1,4", "--u", "1,3,2,4", "--u", "id")


class TestExitCodes:
    @staticmethod
    def assert_clean_exit(res, code):
        assert res.exit_code == code, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args,code", BAD_INPUTS)
    def test_bad_input(self, run, args, code):
        self.assert_clean_exit(run(*args), code)

    def test_store_of_another_shape(self, run, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text(json.dumps({"schema": 1, "shape": "1,3"}) + "\n")
        res = run(*CERTIFY_GR24, "--store", str(store))
        self.assert_clean_exit(res, 2)
        assert len(store.read_text().splitlines()) == 1

    @pytest.mark.parametrize("content", [b"not json\n", b"\xff\xfe\n"])
    def test_store_not_json_lines(self, run, tmp_path, content):
        store = tmp_path / "store.jsonl"
        store.write_bytes(content)
        res = run(*CERTIFY_GR24, "--store", str(store))
        self.assert_clean_exit(res, 2)
        assert store.read_bytes() == content

    def test_engine_value_error_is_a_bug(self, run, monkeypatch):
        # only an InputError is bad input: a plain ValueError raised inside
        # the engine propagates, and is not reported as exit 2
        bug = ValueError("engine fault")

        def evaluate(*args):
            raise bug

        monkeypatch.setattr("gcschub.cli.evaluate", evaluate)
        res = run(*CERTIFY_GR24)
        assert res.exit_code != 2
        assert res.exception is bug

    def test_broken_pipe_is_not_bad_input(self, run, monkeypatch):
        # a reader that leaves early is not a usage error: click ends the
        # command quietly with 1
        def echo(*args, **kwargs):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr("gcschub.cli.click.echo", echo)
        res = run("polytope", "--shape", "2,4")
        assert res.exit_code == 1
        assert "Broken pipe" not in res.output

    def test_store_is_a_directory(self, run, tmp_path):
        res = run(*CERTIFY_GR24, "--store", str(tmp_path))
        self.assert_clean_exit(res, 2)
        assert list(tmp_path.iterdir()) == []

    def test_store_under_missing_directory(self, run, tmp_path):
        store = tmp_path / "missing" / "store.jsonl"
        res = run(*CERTIFY_GR24, "--store", str(store))
        self.assert_clean_exit(res, 2)
        assert not store.parent.exists()

    @pytest.mark.parametrize("option", ["--out", "--detail"])
    def test_sweep_output_paths(self, run, tmp_path, option):
        for path in (tmp_path, tmp_path / "missing" / "out.txt"):
            res = run("sweep", "--shape", "1,3", option, str(path))
            self.assert_clean_exit(res, 2)
        assert list(tmp_path.iterdir()) == []


# Generated command lines: every option of every command drawn from pools of
# valid and malformed tokens, most of them fitted to the drawn shape.  Path
# tokens name a directory, a path under a missing directory, a fresh file
# and a file that is not a certificate store.
SHAPES = [",".join(map(str, cuts + (n,)))
          for n in range(2, 6) for r in range(1, n)
          for cuts in itertools.combinations(range(1, n), r)]
BAD_SHAPES = ["x", "4,3", "0,2", "3", "", "1,,3", "2,2,4"]


def _text(values, parens=True):
    body = ",".join(map(str, values))
    return f"({body})" if parens else body


def _perms(shape):
    """Windows, coset representatives and words of S_n, and malformed ones."""
    n, b = shape.n, shape.bounds
    window = st.permutations(range(1, n + 1))
    coset_rep = window.map(lambda w: "".join(
        str(x) for l in range(1, len(b)) for x in sorted(w[b[l - 1]:b[l]])))
    word = st.lists(st.integers(1, n - 1), min_size=1, max_size=4)
    return st.one_of(
        window.map(lambda w: _text(w, parens=False)),
        coset_rep,
        word.map(lambda w: "*".join(f"s{i}" for i in w)),
        st.sampled_from(["id", "s0", "s9", "s1*", "1,1,3", "21", "x", ""]),
    )


def _partitions(shape):
    """Partitions in the m x (n-m) box, and arbitrary or malformed ones."""
    m = shape.cuts[0]
    return st.one_of(
        st.lists(st.integers(0, shape.n - m), min_size=m, max_size=m)
        .map(lambda xs: _text(sorted(xs, reverse=True))),
        st.lists(st.integers(-1, 3), min_size=1, max_size=5).map(_text),
        st.sampled_from(["()", "(x)", "(1,,0)"]),
    )


def _weights(shape):
    """Lattice weights with entries <= 3: constant on the blocks of the
    shape, or arbitrary, or malformed."""
    sizes = [hi - lo for lo, hi in zip(shape.bounds, shape.bounds[1:])]
    blockwise = st.lists(st.integers(-1, 3), min_size=len(sizes), max_size=len(sizes),
                         unique=True).map(lambda xs: _text(
        v for v, size in zip(sorted(xs, reverse=True), sizes) for _ in range(size)))
    return st.one_of(
        blockwise,
        st.lists(st.integers(-1, 3), min_size=1, max_size=5).map(_text),
        st.sampled_from(["()", "(x)", "2,1,0"]),
    )


POOLS = {
    "perm": _perms,
    "partition": _partitions,
    "weight": _weights,
    "positions": lambda shape: st.one_of(
        st.lists(st.integers(0, 11), min_size=1, max_size=4).map(lambda xs: _text(xs, False)),
        st.sampled_from(["1,x", "x", ""])),
    "budget": lambda shape: st.one_of(st.integers(-1, 20).map(str), st.just("x")),
    "delta": lambda shape: st.sampled_from(["0", "1", "2", "3", "9", "x"]),
    "format": lambda shape: st.sampled_from(["tsv", "json", "xml"]),
    "path": lambda shape: st.sampled_from(["<dir>", "<missing>", "<file>", "<junk>"]),
}
KINDS = {"--u": "perm", "--v": "perm", "--w": "perm", "--target": "perm",
         "--mu": "partition", "--nu": "partition", "--eta": "partition", "--lam": "weight",
         "--positions": "positions", "--budget": "budget", "--delta-k": "delta",
         "--format": "format", "--store": "path", "--out": "path", "--detail": "path"}


@st.composite
def command_lines(draw):
    """A command and its options.  One draw per kind of option decides
    whether the optional options of that kind are given, so that both
    --u/--v/--w and --mu/--nu/--eta of ``constant`` are often complete."""
    name = draw(st.sampled_from(sorted(main.commands)))
    shape_text = draw(st.sampled_from(SHAPES + BAD_SHAPES))
    shape = ParabolicShape.parse(shape_text if shape_text in SHAPES else "2,4")
    given_kinds = {kind for kind in POOLS if draw(st.booleans())}
    args = [name, "--shape", shape_text]
    for param in main.commands[name].params:
        (opt,) = param.opts
        if param.is_flag:
            args += [opt] if draw(st.booleans()) else []
        elif opt != "--shape" and (param.required or KINDS[opt] in given_kinds):
            for _ in range(draw(st.integers(1, 2)) if param.multiple else 1):
                args += [opt, draw(POOLS[KINDS[opt]](shape))]
    return args


def python_literal(cell: str) -> bool:
    """Whether a cell is Python's rendering of a value that JSON writes
    otherwise, such as True, None or a tuple."""
    try:
        value = ast.literal_eval(cell)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        return False
    return repr(value) == cell and json.dumps(value, separators=(",", ":")) != cell


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_generated_command_lines(args):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"<dir>": tmp, "<missing>": os.path.join(tmp, "missing", "f"),
                 "<file>": os.path.join(tmp, "f"), "<junk>": os.path.join(tmp, "junk")}
        with open(paths["<junk>"], "w", encoding="utf-8") as fh:
            fh.write("not json\n")
        res = CliRunner().invoke(main, [paths.get(a, a) for a in args])
    assert res.exit_code in (0, 1, 2, 3), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 2:  # rejected input writes nothing to standard output
        assert res.stdout == "", (args, res.stdout)
        return
    fmt = {p.name: p.default for p in main.commands[args[0]].params}.get("fmt", "tsv")
    if "--format" in args:
        fmt = args[args.index("--format") + 1]
    if fmt == "json":
        json.loads(res.stdout)
    else:
        for line in res.stdout.splitlines():
            for cell in line.split("\t"):
                assert not python_literal(cell), (args, line)
