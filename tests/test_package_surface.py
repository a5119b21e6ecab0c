"""The package is what runs: every public function, method and property
under ``src/gcschub`` is referred to by name somewhere in ``src/`` or
``bench/``.  A helper that only tests call belongs next to the tests.

A name counts as referred to when some ``Name`` or ``Attribute`` node of
those trees carries it.  Click commands are reached through their
decorators, and the click overrides ``convert`` and ``invoke`` through
click itself, so both are exempt.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLICK_OVERRIDES = {"convert", "invoke"}


def _trees(*dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(d):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _is_click_command(fn: ast.FunctionDef) -> bool:
    """Decorated by ``main.command(...)``, ``click.group(...)`` and the like."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in fn.decorator_list
    )


def _public_definitions(tree: ast.Module):
    """(owner class or None, function) for every public function, method
    and property, nested classes included."""
    stack = [(None, tree.body)]
    while stack:
        owner, body = stack.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                stack.append((node.name, node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield owner, node


def unreferenced_names(root: str = ROOT) -> list[str]:
    """Every public definition of ``root/src/gcschub`` that no tree under
    ``root/src`` or ``root/bench`` refers to, as module.[Class.]name."""
    referred = set()
    for _, tree in _trees(os.path.join(root, "src"), os.path.join(root, "bench")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    out = []
    for path, tree in _trees(os.path.join(root, "src", "gcschub")):
        module = os.path.splitext(os.path.basename(path))[0]
        for owner, fn in _public_definitions(tree):
            if fn.name in referred or _is_click_command(fn):
                continue
            if owner is not None and fn.name in CLICK_OVERRIDES:
                continue
            out.append(f"{module}.{owner + '.' if owner else ''}{fn.name}")
    return sorted(out)


def test_every_public_name_is_used_by_the_package_or_the_bench():
    assert unreferenced_names() == []


def test_the_scan_sees_a_helper_that_only_tests_call(tmp_path):
    # the same scan on a tree holding one module: a helper and a method
    # that nothing calls are listed, and so is ``used``, which only the
    # tests would call; a command and a click override are not
    pkg = tmp_path / "src" / "gcschub"
    pkg.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (pkg / "extra.py").write_text(
        "def used():\n    return helper_in_use()\n\n\n"
        "def helper_in_use():\n    return Box().size\n\n\n"
        "def only_tests_call_this():\n    return 2\n\n\n"
        "@main.command()\ndef command():\n    pass\n\n\n"
        "class Box:\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def convert(self, value):\n        return value\n\n"
        "    def only_tests_read_this(self):\n        return 1\n",
        encoding="utf-8",
    )
    assert unreferenced_names(str(tmp_path)) == [
        "extra.Box.only_tests_read_this", "extra.only_tests_call_this", "extra.used",
    ]
