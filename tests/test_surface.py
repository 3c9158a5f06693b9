"""The public surface: each layer's ``__all__`` is what something other
than the tests uses, and the package re-exports nothing.

A name is used when another ``src/`` module imports it, reads it off an
imported module (as the CLI calls ``exp.run_track``), or the benchmark
reaches it.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import heattrack

SRC = pathlib.Path(heattrack.__file__).parent

# What perfbench/ reaches beyond the src/ imports: the drivers and config
# loader its child calls, and the functions whose per-layer metrics its
# tracer takes by wrapping every name of a layer's __all__.
BENCHMARK = {
    "spectral": {"eval_modes", "enumerate_modes"},
    "placement": {"genericity_monte_carlo"},
    "control": {"simulate_closed_loop", "contraction_diagnostics",
                "cross_integrator_check"},
    "plasmonic": {"volterra_solve", "calibrate_k0"},
    "restriction": {"images_point_solution"},
    "harness.config": {"load_config"},
    "harness.experiments": {"run_place", "run_simulate", "run_restriction",
                            "run_coercivity"},
    "harness.manifest": {"write_csv"},
}


def _modules():
    """Dotted names (relative to the package) and paths of every module."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts), path


def _used_names() -> dict:
    """Module -> the names that other ``src/`` modules take from it."""
    names = {name for name, _ in _modules()}
    used = {name: set() for name in names}
    for name, path in _modules():
        package = name.split(".")[:-1]
        aliases = {}    # local name -> module it is bound to
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[:len(package) - node.level + 1]
                target = ".".join(base + (node.module or "").split("."))
            else:
                target = (node.module or "").removeprefix("heattrack")
            target = target.strip(".")
            for alias in node.names:
                module = f"{target}.{alias.name}".strip(".")
                if module in names:
                    aliases[alias.asname or alias.name] = module
                elif target in names:
                    used[target].add(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used[aliases[node.value.id]].add(node.attr)
    return used


def test_every_all_lists_exactly_the_names_used_outside_the_tests():
    used = _used_names()
    checked = 0
    for name, _ in _modules():
        if name.endswith("__init__") or name == "harness.cli":
            continue
        module = importlib.import_module(f"heattrack.{name}")
        listed = module.__all__
        assert len(set(listed)) == len(listed), name
        expected = used[name] | BENCHMARK.get(name, set())
        assert set(listed) == expected, (
            name, sorted(set(listed) - expected),
            sorted(expected - set(listed)))
        checked += 1
    assert checked == 10


def test_no_library_code_is_reached_only_by_the_tests():
    """Every module-level function and class is referenced in ``src/``
    outside its own definition, or reached by the benchmark."""
    used = _used_names()
    unreached = []
    for name, path in _modules():
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = {id(n) for n in ast.walk(node)}
            local = any(isinstance(n, ast.Name) and n.id == node.name
                        and id(n) not in inside for n in ast.walk(tree))
            if not (local or node.name in used[name]
                    or node.name in BENCHMARK.get(name, ())):
                unreached.append(f"{name}.{node.name}")
    assert unreached == []


def test_the_package_inits_import_nothing():
    for name, path in _modules():
        if name.endswith("__init__"):
            body = ast.parse(path.read_text()).body
            assert [type(node) for node in body] == [ast.Expr], name


def test_a_layer_imports_only_its_own_dependencies():
    """A fresh ``import heattrack`` loads no layer, and ``import
    heattrack.spectral`` loads no other layer and no YAML parser."""
    code = ("import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith(('heattrack.', 'yaml')))\n"
            "import heattrack\n"
            "assert loaded() == [], loaded()\n"
            "import heattrack.spectral\n"
            "assert loaded() == ['heattrack.spectral'], loaded()\n")
    package_root = os.path.dirname(os.path.dirname(heattrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
