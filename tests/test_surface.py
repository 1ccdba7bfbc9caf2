"""The library surface: every function in src/tiltkit has a caller there,
every import there is used, `import tiltkit` binds every submodule, and every
name the benchmark's tracer wraps exists."""

import ast
import collections
import functools
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tiltkit"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# Functions kept with no caller in src/, each because tests check a paper
# relation or a fixture invariant through it.
UNCALLED = {
    "regularize": "tests check that Hessian values shift by exactly theta * u",
    "check_derivative": "tests check each analytic fixture's derivative against its value",
}


def definitions():
    """(module, name, node) of every module-level function and non-dunder method."""
    for module, tree in TREES.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in members:
                if isinstance(d, ast.FunctionDef) and not (
                        d.name.startswith("__") and d.name.endswith("__")):
                    yield module, d.name, d


def name_counts(root):
    """How many Name and Attribute nodes under root spell each name."""
    return collections.Counter(getattr(n, "id", None) or getattr(n, "attr", None)
                               for n in ast.walk(root))


def test_every_function_in_src_has_a_caller_in_src():
    # a definition is uncalled when every use of its name lies inside itself
    total = sum(map(name_counts, TREES.values()), collections.Counter())
    uncalled = {name for _, name, d in definitions() if name_counts(d)[name] == total[name]}
    assert uncalled == set(UNCALLED)


def test_no_src_module_imports_a_name_it_does_not_use():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":  # its one import loads and binds the submodules
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [(module, a.name) for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def test_import_tiltkit_binds_every_submodule():
    code = ("import sys, tiltkit\n"
            "tiltkit.hessian, tiltkit.verifier, tiltkit.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('tiltkit.'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == sorted(f"tiltkit.{m[:-3]}" for m in TREES
                         if m not in ("__init__.py", "__main__.py"))


def test_every_traced_name_resolves_as_the_tracer_reads_it():
    # perfbench/tracer.py wraps these entry points by name, reading each from
    # its module's or class's __dict__; a rename here would break the benchmark
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, path in tracer.LAYERS + tracer.EXTRA:
        *cls, attr = path.split(".")
        owner = functools.reduce(getattr, cls, importlib.import_module(f"tiltkit.{modname}"))
        if attr not in vars(owner):
            missing.append(f"{modname}.{path}")
    assert missing == []
