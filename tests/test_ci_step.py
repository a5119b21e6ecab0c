"""``tools/ci_step.py`` reads a step of the CI workflow by indentation and
runs it from the checkout, and the workflow's exit-code step passes."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ci_step.py")

WORKFLOW = """\
jobs:
  one:
    steps:
      - name: First
        run: |
          echo first
          if true; then
            echo nested
          fi
      - name: Second
        run: |
          command -v gcschub
          false
          echo unreachable
      - name: Third
        run: echo one line
  two:
    steps:
      - name: Last
        run: |
          exit 7
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("ci_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_block_reads_one_step_by_indentation():
    step_block = load_tool().step_block
    assert step_block(WORKFLOW, "First") == "echo first\nif true; then\n  echo nested\nfi\n"
    assert step_block(WORKFLOW, "Last") == "exit 7\n"
    with pytest.raises(ValueError, match="no 'run: |' block"):
        step_block(WORKFLOW, "Third")
    with pytest.raises(ValueError, match="0 steps"):
        step_block(WORKFLOW, "Fourth")


def test_a_failing_command_fails_the_step(capfd):
    # the shim comes first on PATH, and bash -e stops at the first failure
    tool = load_tool()
    assert tool.run_block(tool.step_block(WORKFLOW, "Second")) == 1
    shim, = capfd.readouterr().out.splitlines()
    assert shim.endswith(os.path.join("bin", "gcschub"))


def test_exit_code_step_passes():
    proc = subprocess.run([sys.executable, TOOL, "Exit codes of the installed command"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
