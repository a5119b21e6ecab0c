"""Command-line surface: structure constants, certificates, sweeps,
polytope queries, Kogan faces, anti-canonical paths and lattice points.

Shapes are written "n1,...,nk,n" (the last entry is n).  Permutations are
windows ("3124" or "3,1,2,4") or words ("s1*s2*s1"); partitions "(2,1,0)".
Exit code 0 means the command's mathematical assertion held; 1 a failed
assertion; 2 that the input was rejected, by a parameter type, by an
``InputError`` of the engine or by an ``OSError`` on a path; 3 an
``UnsupportedShapeError``.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import click

from . import __version__
from .certify import (
    Certificate,
    EvaluationFailure,
    SweepReport,
    evaluate,
    search,
    store_append,
    sweep_conjecture,
)
from .coeffs import structure_constant
from .gc_polytope import Polytope
from .kogan import enumerate_reduced, face_from_positions
from .ladder import LadderDiagram, decompose_weight
from .weyl import (
    InputError,
    ParabolicShape,
    Permutation,
    UnsupportedShapeError,
    grassmannian_perm,
    parse_partition,
    parse_permutation,
)

EXIT_ASSERTION = 1
EXIT_UNSUPPORTED = 3


class _Parsed(click.ParamType):
    """A parameter parsed from user text alone, so that a ValueError of the
    parser is a usage error."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


SHAPE = _Parsed("shape", ParabolicShape.parse)
PARTITION = _Parsed("partition", parse_partition)
POSITIONS = _Parsed("positions", lambda text: [int(p) for p in text.split(",")])


def _perm(text: str, n: int) -> Permutation:
    try:
        return parse_permutation(text, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _partition_text(part) -> str:
    return "(" + ",".join(map(str, part)) + ")"


def _cell(value) -> str:
    """A TSV cell: containers, booleans and None as compact JSON, anything
    else as text."""
    if value is None or isinstance(value, (bool, dict, list, tuple)):
        return json.dumps(value, separators=(",", ":"), sort_keys=True)
    return str(value)


def _emit(data, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(data, indent=2, sort_keys=True))
    else:
        if isinstance(data, dict):
            for key, value in data.items():
                click.echo(f"{key}\t{_cell(value)}")
        else:
            for row in data:
                click.echo("\t".join(_cell(x) for x in row))


class _Command(click.Command):
    """A command whose exit code for a failure is decided by the exception
    type: an InputError or OSError is bad input (2); an
    UnsupportedShapeError emits an unsupported_shape status in the
    command's format and exits 3.  Any other exception is a bug and
    propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # the reader left: click exits quietly with 1
            raise
        except (InputError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except UnsupportedShapeError as exc:
            _emit({"status": "unsupported_shape", "detail": str(exc)},
                  ctx.params.get("fmt", "tsv"))
            sys.exit(EXIT_UNSUPPORTED)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    pass


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--u", "u_texts", multiple=True, help="Left factors (repeatable).")
@click.option("--v", "v_text", default=None)
@click.option("--w", "w_text", default=None)
@click.option("--mu", type=PARTITION, help="Grassmannian partition of the first factor.")
@click.option("--nu", type=PARTITION, help="Grassmannian partition of the second factor.")
@click.option("--eta", type=PARTITION, help="Grassmannian partition of the target.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def constant(shape, u_texts, v_text, w_text, mu, nu, eta, fmt):
    """Print a structure constant with its provenance."""
    n = shape.n
    parts = (mu, nu, eta)
    if any(p is not None for p in parts):
        if u_texts or v_text or w_text:
            raise click.UsageError("give either --u/--v/--w or --mu/--nu/--eta, not both")
        if None in parts or not shape.is_grassmannian():
            raise click.UsageError("--mu/--nu/--eta need a Grassmannian shape and all three values")
        m = shape.cuts[0]
        *us, w = [grassmannian_perm(p + (0,) * (m - len(p)), m, n) for p in parts]
    else:
        if not u_texts or v_text is None or w_text is None:
            raise click.UsageError("give --u/--v/--w or --mu/--nu/--eta")
        us = [_perm(t, n) for t in u_texts] + [_perm(v_text, n)]
        w = _perm(w_text, n)
        for x in us + [w]:
            if not shape.in_min_coset_reps(x):
                raise click.UsageError(f"{x} is not a minimal coset representative for {shape}")
    value = structure_constant(us, w)
    _emit({"N": value, "provenance": "oracle"}, fmt)


def _certificate_command(shape, v_texts, w_text, store, fmt, run):
    """Parse the factors, run ``run(poly, vs, w)``, store and emit its
    certificate, and exit.  ``run`` returns a Certificate, or a failure
    payload whose status names what went wrong."""
    vs = [_perm(t, shape.n) for t in v_texts]
    w = _perm(w_text, shape.n)
    outcome = run(Polytope(LadderDiagram(shape)), vs, w)
    if not isinstance(outcome, Certificate):
        _emit(outcome, fmt)
        sys.exit(EXIT_UNSUPPORTED if outcome["status"] == "unsupported_shape" else EXIT_ASSERTION)
    if store:
        store_append(store, outcome)
    _emit(outcome.to_json(), fmt)
    sys.exit(0 if outcome.ok else EXIT_ASSERTION)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--v", "v_texts", multiple=True, required=True)
@click.option("--w", "w_text", required=True)
@click.option("--u", "u_texts", multiple=True, required=True)
@click.option("--store", default=None, help="JSONL certificate store to append to.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="json")
def certify(shape, v_texts, w_text, u_texts, store, fmt):
    """Evaluate one translation tuple into a certificate."""

    def run(poly, vs, w):
        res = evaluate(poly, vs, w, [_perm(t, poly.n) for t in u_texts])
        if isinstance(res, EvaluationFailure):
            return {"status": res.kind, "detail": res.detail}
        return res

    _certificate_command(shape, v_texts, w_text, store, fmt, run)


@main.command("search")
@click.option("--shape", type=SHAPE, required=True)
@click.option("--v", "v_texts", multiple=True, required=True)
@click.option("--w", "w_text", required=True)
@click.option("--budget", type=click.IntRange(min=1), default=3000, show_default=True)
@click.option("--store", default=None)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="json")
def search_cmd(shape, v_texts, w_text, budget, store, fmt):
    """Search translation tuples for a certificate."""

    def run(poly, vs, w):
        result = search(poly, vs, w, budget=budget)
        if result.certificate is None:
            # a tuple the engine cannot judge on this shape makes the whole
            # search unsupported, not a failed assertion
            stats = result.stats
            status = "unsupported_shape" if "unsupported_shape" in stats.failures else "exhausted"
            return {"status": status, "tried": stats.tried,
                    "cursor": stats.cursor, "failures": stats.failures}
        return result.certificate

    _certificate_command(shape, v_texts, w_text, store, fmt, run)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--budget", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--out", default=None, help="Write the JSON summary here as well.")
@click.option("--detail", default=None, help="Write a per-class TSV detail table here.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="json")
def sweep(shape, budget, out, detail, fmt):
    """Resolve every constant class of the shape: certified or zero."""
    report = sweep_conjecture(shape, budget=budget)
    if isinstance(report, SweepReport):
        payload = report.summary()
        rows = [(c.kind, c.size, [p.window for p in c.representative]) for c in report.classes]
    else:
        payload = {"shape": str(shape), "triples": len(report.entries),
                   "by_status": dict(Counter(e["status"] for e in report.entries)),
                   "all_resolved": report.all_resolved}
        rows = [(e["status"], e.get("N"), e["triple"]) for e in report.entries]
    ok = report.all_resolved
    if ok:
        payload["summary"] = "all classes certified or zero"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if detail:
        with open(detail, "w", encoding="utf-8") as fh:
            for kind, count, triple in rows:
                # one cell per triple: entries joined by commas, elements by spaces
                cell = " ".join(",".join(map(str, x)) for x in triple)
                fh.write("\t".join(map(_cell, (kind, count, cell))) + "\n")
    _emit(payload, fmt)
    sys.exit(0 if ok else EXIT_ASSERTION)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def polytope(shape, fmt):
    """Dimension, facet and vertex counts of the polytope."""
    poly = Polytope(LadderDiagram(shape))
    data = {
        "shape": str(shape),
        "dim": poly.dim,
        "facets": poly.facet_count,
        "vertices": len(poly.vertices()),
    }
    if shape.is_complete():
        data["regular_vertices"] = sum(1 for v in poly.vertices() if poly.is_regular(v))
    _emit(data, fmt)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--mu", type=PARTITION)
@click.option("--dual", is_flag=True, help="Use the complementary face of mu.")
@click.option("--delta-k", "delta_k", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="json")
def faces(shape, mu, dual, delta_k, fmt):
    """Named faces: F_mu, its dual, or the Gr(2,n) shifted face."""
    if delta_k is not None and (mu is not None or dual):
        raise click.UsageError("--delta-k takes neither --mu nor --dual")
    poly = Polytope(LadderDiagram(shape))
    if delta_k is not None:
        face = poly.delta_k_face(delta_k)
        name = f"delta_({delta_k})"
    elif mu is not None:
        face = poly.named_face_Fvee(mu) if dual else poly.named_face_F(mu)
        name = ("Fvee_" if dual else "F_") + _partition_text(mu)
    else:
        raise click.UsageError("give --mu or --delta-k")
    _emit({"face": name, "dim": face.dim, "edges": face.edge_ids()}, fmt)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--regular-only", is_flag=True)
def vertices(shape, regular_only):
    """TSV dump of the vertices as block-symbol assignments."""
    if regular_only and not shape.is_complete():
        raise UnsupportedShapeError("regular vertices are defined for complete flags")
    poly = Polytope(LadderDiagram(shape))
    click.echo("\t".join(f"b{c}_{r}" for (c, r) in poly.boxes))
    for v in poly.vertices():
        if regular_only and not poly.is_regular(v):
            continue
        click.echo("\t".join(f"a{l}" for l in v.values))


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--target", default=None, help="Permutation whose faces to enumerate.")
@click.option("--dual", is_flag=True)
@click.option("--positions", type=POSITIONS, help="1-based positions into the reference word of w0.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="json")
def kogan(shape, target, dual, positions, fmt):
    """Kogan faces: read a subword face or enumerate by target."""
    if not shape.is_complete():
        raise UnsupportedShapeError("Kogan faces need a complete flag")
    if positions and target:
        raise click.UsageError("give --target or --positions, not both")
    diagram = LadderDiagram(shape)
    if positions:
        _emit(face_from_positions(diagram, positions, dual).to_json(), fmt)
        return
    if not target:
        raise click.UsageError("give --target or --positions")
    found = enumerate_reduced(diagram, _perm(target, shape.n), dual)
    _emit([f.to_json() for f in found] if fmt == "json" else
          [(i, f.word, f.reduced) for i, f in enumerate(found)], fmt)


@main.command()
@click.option("--shape", type=SHAPE, required=True)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def anticanonical(shape, fmt):
    """Special paths assembling the anti-canonical divisor, with counts."""
    diagram = LadderDiagram(shape)
    paths = diagram.special_paths()
    b = shape.bounds
    expected = sum(b[i + 1] - b[i - 1] for i in range(1, shape.k + 1))
    distinct = len({p.steps for p in paths})
    data = {
        "shape": str(shape),
        "paths": [str(p) for p in paths],
        "count": len(paths),
        "expected_count": expected,
        "distinct_divisors": distinct,
        "expected_distinct": shape.n + shape.cuts[-1] - shape.cuts[0],
    }
    _emit(data if fmt == "json" else {
        "paths": ";".join(str(p) for p in paths),
        "count": len(paths),
        "distinct": distinct,
    }, fmt)
    ok = len(paths) == expected and distinct == data["expected_distinct"]
    sys.exit(0 if ok else EXIT_ASSERTION)


@main.command("lattice-points")
@click.option("--shape", type=SHAPE, required=True)
@click.option("--lam", type=PARTITION, required=True, help="Numeric highest weight, e.g. (2,2,0,0).")
@click.option("--decompose", "do_decompose", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def lattice_points(shape, lam, do_decompose, fmt):
    """Count lattice points; optionally list each point's path decomposition."""
    diagram = LadderDiagram(shape)
    points = Polytope(diagram).lattice_points(lam)
    if do_decompose:
        rows = [(pt, [str(p) for p in decompose_weight(diagram, lam, pt)]) for pt in points]
        _emit([(pt, ";".join(paths)) for pt, paths in rows] if fmt == "tsv" else
              [{"point": pt, "paths": paths} for pt, paths in rows], fmt)
    else:
        _emit({"shape": str(shape), "lambda": _partition_text(lam), "points": len(points)}, fmt)


if __name__ == "__main__":
    main()
