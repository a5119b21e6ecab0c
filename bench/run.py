"""gcschub benchmark: cold certification jobs, end-to-end and per layer.

    python3 bench/run.py --workload gr_chevalley --seed 1 --seconds 25 --trace 0

Every measurement runs in a fresh interpreter (bench/job.py), so the
module-level caches of the package start empty, as they do for every call
of the ``gcschub`` command.  Within the time given by --seconds the run
repeats the cold job as often as it fits, at least once, and reports
medians of times rescaled to a reference host speed (see job.py).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it first runs
the tracer's self-test, then alternates untraced and traced jobs, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; a record of the whole run is written to
bench/results/BENCH_<workload>_seed<seed>_trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("gr_chevalley", "gr2_sweep", "fl5_partition", "fl6_flagship")
SETUP_PROBES = 9      # set-up-only interpreters per untraced run, for setup_s
CHILD_LIMIT_S = 170   # the whole run must end within 180 s


class ChildError(RuntimeError):
    """A job interpreter ended without a result: the program cannot run."""


def child(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run bench/job.py in a fresh isolated interpreter; return its result
    and its wall time as seen from here."""
    env = {k: v for k, v in os.environ.items() if k != "GCSCHUB_THREADS"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "job.py"), json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"job {spec} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), elapsed


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """Repeat the cold job while the next one is expected to end inside the
    window, at least once.  Untraced runs bracket the jobs with set-up
    probes; traced runs start with the tracer's self-test and alternate
    untraced and traced jobs, so that the tracing overhead compares jobs run
    close together."""
    base = {"workload": workload, "seed": seed}
    record: dict = {"reps": [], "traced_reps": [], "setup_probes": []}
    if traced:
        profiled, _ = child({**base, "mode": "profile", "workload": "selftest"}, deadline)
        counted, _ = child({**base, "mode": "run", "workload": "selftest", "trace": True}, deadline)
        record["selftest"] = {
            "profile": profiled["counts"], "trace": counted["counts"],
            "ok": profiled["counts"] == counted["counts"]
            and not profiled["failures"] and not counted["failures"],
        }
    else:
        for _ in range(SETUP_PROBES // 2 + 1):
            record["setup_probes"].append(child({**base, "mode": "setup"}, deadline)[0])
    window_start = time.monotonic()
    durations: list[float] = []
    spans = os.path.join(RESULTS, f"spans_{workload}_seed{seed}.jsonl")

    def next_fits() -> bool:
        if not durations:
            return True
        now, expected = time.monotonic(), statistics.median(durations)
        return now - window_start + expected <= seconds and now + expected < deadline

    while next_fits() or (traced and not record["traced_reps"]):
        tracing = traced and len(record["traced_reps"]) < len(record["reps"])
        spec = {**base, "mode": "run", "trace": tracing, "spans_path": spans if tracing else None}
        rep, elapsed = child(spec, deadline)
        record["traced_reps" if tracing else "reps"].append(rep)
        durations.append(elapsed)
    if not traced:
        for _ in range(SETUP_PROBES // 2):
            record["setup_probes"].append(child({**base, "mode": "setup"}, deadline)[0])
    return record


def percentile_ms(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of one job's search latencies."""
    return statistics.median(samples), statistics.quantiles(samples, n=10)[-1]


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def summarise(record: dict, traced: bool) -> dict:
    """Medians over the cold jobs, every time rescaled to the reference host
    speed; the raw times and speeds stay in the record."""
    reps, traced_reps = record["reps"], record["traced_reps"]
    every = reps + traced_reps
    digests = {rep["digest"] for rep in every}
    attempted = sum(rep["attempted"] for rep in every)
    failed = sum(rep["failed"] for rep in every)
    correct = failed == 0 and len(digests) == 1 and record.get("selftest", {"ok": True})["ok"]
    wall = statistics.median(rep["wall_s"] * rep["host_speed"] for rep in reps)
    if traced:
        metrics = {}
        for name in traced_reps[0]["layers"]:
            unit = layer_unit(name)
            values = [rep["layers"][name] * (rep["host_speed"] if unit == "s" else 1)
                      for rep in traced_reps]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_wall = statistics.median(rep["wall_s"] * rep["host_speed"] for rep in traced_reps)
        metrics["trace.overhead_ratio"] = {"value": traced_wall / wall, "unit": "ratio"}
    else:
        setups = record["setup_probes"] + reps
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] * p["setup_speed"] for p in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rep["peak_rss_mb"] for rep in reps),
                            "unit": "MB"},
        }
    searches = [(percentile_ms(rep["search_ms"]), rep["host_speed"])
                for rep in reps if len(rep["search_ms"]) >= 10]
    if searches:
        record["search_latency"] = {
            "p50_ms": statistics.median(p50 * speed for (p50, _), speed in searches),
            "p90_ms": statistics.median(p90 * speed for (_, p90), speed in searches),
            "samples_per_job": len(reps[0]["search_ms"]),
            "jobs": len(searches),
        }
    record["raw_wall_s"] = statistics.median(rep["wall_s"] for rep in reps)
    record["host_speed"] = statistics.median(rep["host_speed"] for rep in every)
    record["digests"] = sorted(digests)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gcschub", "__init__.py")):
        print(f"no gcschub sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + CHILD_LIMIT_S
    info = {"machine": machine()}
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    info["machine"]["loadavg_end"] = list(os.getloadavg())
    result = summarise(record, bool(args.trace))
    for rep in record["reps"] + record["traced_reps"]:
        rep.pop("search_ms")
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **info, **record, "result": result}, fh, indent=1)
    print(f"{args.workload}: {len(record['reps'])} untraced and {len(record['traced_reps'])} "
          f"traced cold jobs, digest {' '.join(record['digests'])}, raw wall "
          f"{record['raw_wall_s']:.3f} s at host speed {record['host_speed']:.3f}",
          file=sys.stderr)
    if "search_latency" in record:
        print(f"search latency: {record['search_latency']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
