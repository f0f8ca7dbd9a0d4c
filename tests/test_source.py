import ast
import importlib
import inspect
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import serwalk

SOURCES = sorted(Path(serwalk.__file__).parent.glob("*.py"))


def _asserts(node) -> bool:
    # `python -O` strips assert statements, and callers handle ValueError,
    # not AssertionError: invariants must be raised as ValueError
    if isinstance(node, ast.Raise) and node.exc is not None:
        return "AssertionError" in ast.unparse(node.exc)
    return isinstance(node, ast.Assert)


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if _asserts(node)]
    assert SOURCES and found == []


def _unused_imports(tree) -> list:
    # the names a module binds by import and never reads; `from __future__`
    # binds nothing
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_library_uses_every_name_it_imports():
    # an import left behind by a deleted code path is dead weight; the
    # package's __init__ imports only to export
    found = [f"{path.name}: {name}"
             for path in SOURCES if path.name != "__init__.py"
             for name in _unused_imports(ast.parse(path.read_text()))]
    assert found == [], found


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these attributes by name: one renamed or
    # removed in the library would break its traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")  # run from source: no bytecode written
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert spans.TARGETS and missing == []


def _library_callables():
    # every function serwalk defines and every method of its classes,
    # dataclass constructors included, as (qualified name, function)
    for path in SOURCES:
        module = importlib.import_module(f"serwalk.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_callable_chooses_a_norm_or_a_mode():
    # the norm is a property of the space and the mode of the points: a
    # SparseVec is measured in the sup norm, a dense tuple in the Euclidean
    # one, and Walk.mode is read off the start point
    found = [f"{name}({param})"
             for name, obj in _library_callables()
             for param in inspect.signature(obj).parameters
             if param in ("kind", "mode")]
    assert found == []


def test_no_callable_takes_a_fraction():
    # the estimate's late window and the Cauchy tail are fixed fractions of
    # the walk's sums (WINDOW_FRACTION, TAIL_FRACTION), not call settings
    found = [f"{name}({param})"
             for name, obj in _library_callables()
             for param in inspect.signature(obj).parameters
             if param.endswith("_fraction")]
    assert found == []


def _own_nodes(fn):
    # the nodes of a function's body, not those of the functions it defines
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _callee(call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _norm_flags(nodes) -> set:
    # the names a function unpacks from float_rows's first value:
    # `sup, (rows,) = float_rows(...)`
    return {target.elts[0].id for node in nodes
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and _callee(node.value) == "float_rows"
            for target in node.targets
            if isinstance(target, ast.Tuple) and isinstance(target.elts[0], ast.Name)}


def test_every_norm_flag_comes_from_float_rows():
    # the norm is decided once, by float_rows from the points: a call of a
    # library function with a `sup` parameter passes a name unpacked from
    # float_rows in the calling function, or the caller's own `sup`, never
    # a literal
    takers = {}  # function name -> position of its sup parameter
    for qualname, obj in _library_callables():
        params = list(inspect.signature(obj).parameters)
        if "sup" in params:
            takers[qualname.split(".")[-1]] = params.index("sup")
    found, checked = [], 0
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(_own_nodes(fn))
            flags = _norm_flags(nodes) | ({"sup"} & {a.arg for a in fn.args.args})
            for call in nodes:
                if not isinstance(call, ast.Call) or _callee(call) not in takers:
                    continue
                at = takers[_callee(call)]
                flag = {k.arg: k.value for k in call.keywords}.get(
                    "sup", call.args[at] if at < len(call.args) else None)
                checked += 1
                if not (isinstance(flag, ast.Name) and flag.id in flags):
                    found.append(f"{path.name}:{call.lineno} {ast.unparse(call)[:60]}")
    assert checked and found == [], found


ROOT = Path(__file__).resolve().parents[1]
#: the code that counts as a caller: the library, the demos, the benchmark
#: and the fixed acceptance gate (other tests are not callers)
CALLERS = [*SOURCES, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def test_sources_parse_at_the_python_floor():
    # pyproject's requires-python is 3.10: no syntax from a later Python in
    # the library or the demos
    for path in [*SOURCES, *sorted((ROOT / "demos").glob("*.py"))]:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _calls_by_name():
    # callee name -> (positional count, keyword names) of every call in the
    # callers; a *args or **kwargs argument may pass anything
    calls: dict[str, list] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional = math.inf if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((positional, keywords))
    return calls


def _defaults():
    # (name, parameter, its position after self, calls of its callee) for
    # every defaulted parameter of the library
    calls = _calls_by_name()
    for qualname, obj in _library_callables():
        parts = qualname.split(".")
        callee = parts[2] if parts[-1] == "__init__" else parts[-1]
        params = list(inspect.signature(obj).parameters.values())
        if len(parts) == 4:
            params = params[1:]  # self is bound by the call
        for k, p in enumerate(params):
            if p.default is not p.empty:
                yield f"{qualname}({p.name})", p, k, calls.get(callee, ())


def _sets(p, k, call) -> bool:
    n, keywords = call
    by_position = p.kind is not p.KEYWORD_ONLY
    return None in keywords or p.name in keywords or (by_position and k < n)


def test_every_default_is_set_by_a_caller():
    # a default that no caller ever changes is a constant in disguise
    unset = [name for name, p, k, calls in _defaults()
             if not any(_sets(p, k, call) for call in calls)]
    assert unset == [], unset


def test_every_default_is_used_by_a_caller():
    # a default that every caller overrides is a required parameter in
    # disguise: some call must leave it out
    always_set = [name for name, p, k, calls in _defaults()
                  if all(_sets(p, k, call) for call in calls)]
    assert always_set == [], always_set


def _taken_from_the_package(path) -> set:
    # the names a file takes from the package itself, by `from serwalk
    # import X` or `serwalk.X`; a name taken from its module is not a use
    # of the export
    taken = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "serwalk" and not node.level:
            taken.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "serwalk"):
            taken.add(node.attr)
    return taken


def test_every_export_has_a_caller():
    # an export is public surface: one that no caller outside the library
    # takes from the package is dead weight
    taken = set().union(*(_taken_from_the_package(p) for p in CALLERS if p not in SOURCES))
    untaken = [name for name in serwalk.__all__ if name not in taken]
    assert untaken == [], untaken


def test_demos_run_and_redraw_the_committed_svgs(tmp_path):
    # each demo runs from a copy, so the SVGs it writes next to itself land
    # in tmp_path and must equal the committed ones byte for byte; a
    # RuntimeWarning fails a demo, as it fails an in-process test
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        shutil.copy(demo, tmp_path)
        r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", demo.name],
                           cwd=tmp_path, env=env, capture_output=True, text=True)
        assert r.returncode == 0, f"{demo.name}: {r.stderr}"
    for svg in ("circle.svg", "two_lines.svg"):
        assert (tmp_path / svg).read_bytes() == (ROOT / "demos" / svg).read_bytes()
