import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # the benchmark's tracer wraps public functions by name; every one of
    # them must still exist, whether or not the scenario paths call it
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tracer import Tracer, install\n"
            "install(Tracer(full=True))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Module-level names that no other line of src/ references, each kept on purpose.
UNREFERENCED_BY_DESIGN = {
    # wrapped by name in perfbench/tracer.py, until the tracer stops wrapping them
    "factorize", "perturb", "var_dsp",
    # criterion 01's circuit-level estimators (dsp_expectation is wrapped too)
    "dsp_expectation", "esd_expectation", "re_purification",
}

# the AST nodes that use a name, and the field that holds it
_USES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_no_test_only_names_in_src():
    # every module-level def and class in src/qemlab is used by the package
    # itself; a reference kept only for tests belongs in tests/oracles.py
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "qemlab").glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports are not uses
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = (path.name, node.lineno)
        for node in ast.walk(tree):
            if type(node) in _USES:
                used.add((getattr(node, _USES[type(node)]), path.name, node.lineno))
    unused = {name for name, (file, line) in defined.items()
              if not any(u[0] == name and u[1:] != (file, line) for u in used)}
    assert not unused - UNREFERENCED_BY_DESIGN, "used only outside src/; move to tests/oracles.py"
    assert not UNREFERENCED_BY_DESIGN - unused, "src/ uses or lost these; drop them from the list"
