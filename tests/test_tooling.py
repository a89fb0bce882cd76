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


def _src_trees():
    """(file name, AST) of every src/qemlab module but __init__, whose
    re-exports are not uses, and every (name, file name, line) that uses a name."""
    trees, used = [], set()
    for path in sorted((ROOT / "src" / "qemlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        trees.append((path.name, tree))
        for node in ast.walk(tree):
            if type(node) in _USES:
                used.add((getattr(node, _USES[type(node)]), path.name, node.lineno))
    return trees, used


def _unused(defined: dict, used: set) -> set:
    """The names in defined (name -> (file, line)) that no other line uses."""
    return {name for name, (file, line) in defined.items()
            if not any(u[0] == name.rpartition(".")[2] and u[1:] != (file, line) for u in used)}


def test_no_test_only_names_in_src():
    # every module-level def and class in src/qemlab is used by the package
    # itself; a reference kept only for tests belongs in tests/oracles.py
    trees, used = _src_trees()
    defined = {node.name: (file, node.lineno) for file, tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = _unused(defined, used)
    assert not unused - UNREFERENCED_BY_DESIGN, "used only outside src/; move to tests/oracles.py"
    assert not UNREFERENCED_BY_DESIGN - unused, "src/ uses or lost these; drop them from the list"


def test_no_test_only_methods_in_src():
    # every method and property of a src/qemlab class, dunders aside, is used
    # by name on some other line of src/.  A method whose name another used
    # attribute shares (copy, matrix, scaled) passes whether or not anything
    # calls it, so this guard cannot catch that case.
    trees, used = _src_trees()
    defined = {f"{cls.name}.{node.name}": (file, node.lineno)
               for file, tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert not _unused(defined, used), "used only outside src/; move to tests/oracles.py"


# The value objects that ``experiments.values`` builds from a checked config.
BUILT_BY_VALUES = {"NoiseModel", "ShotConfig", "SubspaceSpec", "read_params",
                   "models.graph", "models.partition"}


def test_scenarios_build_no_value_objects():
    # a scenario and Problem read the objects check_config built, so each
    # config rule lives in one constructor and runs before any work
    tree = ast.parse((ROOT / "src" / "qemlab" / "experiments.py").read_text())
    funcs = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("scenario_")]
    funcs += [node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Problem"
              for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert len(funcs) > 7, "no scenario functions or Problem methods found"
    builds = {(func.name, ast.unparse(call.func)) for func in funcs for call in ast.walk(func)
              if isinstance(call, ast.Call) and ast.unparse(call.func) in BUILT_BY_VALUES}
    assert not builds, "build it in experiments.values and read it from cfg.values"


def test_cli_has_one_run_loop():
    # every scenario run goes through the one loop of qemlab run: cli.py calls
    # run_experiment on one line and defines no sweep subcommand beside it
    tree = ast.parse((ROOT / "src" / "qemlab" / "cli.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    lines = {call.lineno for call in calls if ast.unparse(call.func) == "run_experiment"}
    assert len(lines) == 1, f"run_experiment called on lines {sorted(lines)}"
    parsers = [call.args[0].value for call in calls
               if isinstance(call.func, ast.Attribute) and call.func.attr == "add_parser"
               and call.args and isinstance(call.args[0], ast.Constant)]
    assert "run" in parsers and "sweep" not in parsers, parsers
    funcs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_cmd_sweep" not in funcs


def test_gate_noise_is_the_one_rule():
    # the ops after a gate come from circuits.gate_noise alone, which turns
    # coherent drift into rotation gates; no other line asks the model for
    # channels, so drift has one form in every circuit
    trees, _ = _src_trees()
    calls = {(file, call.lineno) for file, tree in trees for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and ast.unparse(call.func).rpartition(".")[2] == "channels_for_gate"}
    rule = next(node for file, tree in trees if file == "circuits.py" for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "gate_noise")
    inside = {("circuits.py", line) for line in range(rule.lineno, rule.end_lineno + 1)}
    assert calls and calls <= inside, f"channels_for_gate called at {sorted(calls - inside)}"


def test_subspace_has_one_builder():
    # every basis is built by subspace.build, the module's one build* function;
    # the fault and divided term enumerations are each called on one line,
    # inside _elements, which build and plan_queries share
    tree = ast.parse((ROOT / "src" / "qemlab" / "subspace.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = [name for name in funcs if name.startswith("build")]
    assert builders == ["build"], builders
    pick = funcs["_elements"]
    inside = set(range(pick.lineno, pick.end_lineno + 1))
    for name in ("_fault_terms", "_divided_terms"):
        lines = {call.lineno for call in ast.walk(tree)
                 if isinstance(call, ast.Call) and ast.unparse(call.func) == name}
        assert len(lines) == 1 and lines <= inside, (name, sorted(lines))
