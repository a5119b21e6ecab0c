import json

import pytest
from click.testing import CliRunner

from gcschub.cli import main


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
    ])
    def test_container_fields_parse_as_json(self, run, args, field, expected):
        res = run(*args, "--format", "tsv")
        assert res.exit_code in (0, 1), res.output
        fields = dict(line.split("\t", 1) for line in res.output.splitlines())
        assert json.loads(fields[field]) == expected
        assert " " not in fields[field]


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
