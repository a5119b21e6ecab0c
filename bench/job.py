"""One cold run of a workload in a fresh interpreter.

    python3 -I bench/job.py '{"mode": "run", "workload": "gr_chevalley", "seed": 1}'

Modes:

* ``setup``: import gcschub and build the workload's objects, report setup_s;
* ``run``: set up, run and check every job, report wall_s, peak RSS and the
  output digest; with ``"trace": true`` the tracer wraps the library first
  and the layer metrics are reported too;
* ``profile``: run the workload under cProfile and report the call counts
  of the traced functions, for the tracer's self-test.

Times come with the host speed measured around them (see ``HostMeter``).
The last line of standard output is one JSON object.  The package is
imported from ``src`` next to this directory, never from site-packages.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import sys
from time import perf_counter

CALIBRATION_REFERENCE_S = 0.0025


def _arithmetic():
    acc = 0
    for i in range(7_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def _ordered(a, b):
    return (a, b) if a < b else (b, a)


def _tuples():
    seen = set()
    out = []
    for i in range(2_000):
        t = _ordered(i % 37, (i * 7) % 41)
        if t not in seen:
            seen.add(t)
            out.append(t)
    out.sort()
    return sum(x for x, _ in out)


def _union_find():
    total = 0
    for rep in range(14):
        parent = list(range(64))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(40):
            a, b = find((i * 7 + rep) % 64), find((i * 11) % 64)
            if a != b:
                parent[max(a, b)] = min(a, b)
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(tuple(find(i) for i in range(64))):
            groups.setdefault(root, []).append(i)
        total += len(sorted(groups.items()))
    return total


def calibration_loop() -> float:
    """Seconds for a fixed basket of small pure-Python programs: integer
    arithmetic; calls building tuples into a set and a sorted list; a
    union-find over lists, grouped in a dict.  The reference host takes
    2.5 ms.  A slow host slows the package's code about as much as this mix;
    each part alone tracks it less well."""
    start = perf_counter()
    _arithmetic()
    _tuples()
    _union_find()
    return perf_counter() - start


SETUP_SAMPLES = [calibration_loop() for _ in range(3)]
START = perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

try:
    import gcschub
    import gcschub.cli  # noqa: F401  (part of set-up: the CLI's imports)
except ImportError as exc:
    sys.exit(f"cannot import gcschub from {SRC}: {exc}")
if not os.path.abspath(gcschub.__file__).startswith(SRC + os.sep):
    sys.exit(f"gcschub imported from {gcschub.__file__}, not from {SRC}")

import layertrace  # noqa: E402  (the tracer and workloads import gcschub)
import workloads  # noqa: E402


def speed(samples: list[float]) -> float:
    """Mean host speed over evenly spaced calibration samples, relative to
    the reference: 0.8 on a host running 20% slow.  Work done at the
    reference speed is wall time times this mean."""
    return sum(CALIBRATION_REFERENCE_S / s for s in samples) / len(samples)


class HostMeter:
    """Samples the host's speed while a job runs.

    The host's speed drifts by about 20% over tens of seconds, which no
    number of repetitions averages out.  So every PERIOD_S seconds a timer
    signal interrupts the job between two bytecodes and times the
    calibration basket.  The job's own time is its wall time minus the time
    spent in the basket.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame):
        self.samples.append(calibration_loop())

    def __enter__(self):
        self.samples.append(calibration_loop())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibration_loop())

    @property
    def spent(self) -> float:
        """Seconds of calibration inside the timed region."""
        return sum(self.samples[1:-1])


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(spec: dict) -> dict:
    setup, run = workloads.WORKLOADS[spec["workload"]]
    rng = random.Random(spec["seed"])
    out = workloads.Outcome()
    if spec["mode"] == "profile":
        import cProfile
        import pstats

        codes = layertrace.traced_code_objects()
        profile = cProfile.Profile()
        profile.runcall(lambda: run(setup(rng), out))
        stats = pstats.Stats(profile).stats
        where = {(c.co_filename, c.co_firstlineno, c.co_name): layer for layer, c in codes.items()}
        counts = {layer: 0 for layer in codes}
        for key, (_cc, ncalls, _tt, _ct, _callers) in stats.items():
            if key in where:
                counts[where[key]] = ncalls
        return {"counts": counts, "failures": out.failures}

    tracer = None
    if spec.get("trace"):
        tracer = layertrace.Tracer()
        tracer.install()
    state = setup(rng)
    setup_s = perf_counter() - START
    setup_speed = speed(SETUP_SAMPLES + [calibration_loop() for _ in range(3)])
    if spec["mode"] == "setup":
        return {"setup_s": setup_s, "setup_speed": setup_speed}

    with HostMeter() as meter:
        start = perf_counter()
        run(state, out)
        elapsed = perf_counter() - start
    wall_s = elapsed - meter.spent
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "wall_s": wall_s,
        "host_speed": speed(meter.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failures": out.failures[:20],
        "failed": len(out.failures),
        "digest": digest(out.outputs),
        "search_ms": out.search_ms,
    }
    if tracer is not None:
        result["counts"] = tracer.counts()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["missing"] = tracer.missing
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
