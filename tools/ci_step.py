"""Run one step of the CI workflow from the checkout, as CI runs it.

The step's ``run: |`` block is read from ``.github/workflows/tests.yml``
by indentation, with no YAML library, since CI installs none.  A
``gcschub`` shim that runs ``python -m gcschub.cli`` with ``src`` on
``PYTHONPATH`` comes first on ``PATH``, so the block needs no install, and
the block runs under ``bash -e`` in a temporary directory.

Usage, from any directory:

    python tools/ci_step.py NAME

for example ``python tools/ci_step.py "Exit codes of the installed
command"``.  Exits with the block's exit code.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def step_block(text: str, name: str) -> str:
    """The ``run: |`` block of the one step called ``name``, dedented."""
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == f"- name: {name}"]
    if len(starts) != 1:
        raise ValueError(f"{len(starts)} steps named {name!r}")
    dash = _indent(lines[starts[0]])
    for i in range(starts[0] + 1, len(lines)):
        line = lines[i]
        # the next step, or the end of the list of steps
        if line.strip() and _indent(line) <= dash:
            break
        if line.strip() == "run: |":
            key = _indent(line)
            body = []
            for line in lines[i + 1:]:
                if line.strip() and _indent(line) <= key:
                    break
                body.append(line)
            return textwrap.dedent("\n".join(body)).strip("\n") + "\n"
    raise ValueError(f"step {name!r} has no 'run: |' block")


def run_block(block: str) -> int:
    """Run a step's block under ``bash -e`` in a temporary directory, with
    the ``gcschub`` shim first on ``PATH``; return its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        bindir = os.path.join(tmp, "bin")
        work = os.path.join(tmp, "work")
        os.mkdir(bindir)
        os.mkdir(work)
        shim = os.path.join(bindir, "gcschub")
        with open(shim, "w", encoding="utf-8") as fh:
            fh.write(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m gcschub.cli "$@"\n')
        os.chmod(shim, 0o755)
        script = os.path.join(tmp, "step.sh")
        with open(script, "w", encoding="utf-8") as fh:
            fh.write(block)
        env = dict(os.environ)
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run(["bash", "-e", script], cwd=work, env=env).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name")
    args = parser.parse_args(argv)
    with open(WORKFLOW, encoding="utf-8") as fh:
        return run_block(step_block(fh.read(), args.name))


if __name__ == "__main__":
    sys.exit(main())
