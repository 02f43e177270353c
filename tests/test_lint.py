"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

from setstat import harness

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "setstat").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads; a name listed
    in the module's __all__ counts as read (a re-export)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _exports(tree: ast.Module) -> list[str]:
    """The names listed in the module's __all__, if it has one."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def test_unused_import_check_flags_an_unread_name():
    source = "import math\nimport os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["dumps (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_modules_have_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def _unbound_exports(tree: ast.Module) -> list[str]:
    """Names in the module's __all__ that no module-level def, class, import
    or assignment binds (names bound inside a function do not count)."""
    bound, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(set(_exports(tree)) - bound)


def test_unbound_export_check_flags_a_name_the_module_never_binds():
    source = ("import os.path\nfrom json import dumps as dump\nLIMIT = 3\n"
              "if LIMIT:\n    A, B = 1, 2\ndef f():\n    gone = 1\nclass C:\n    inner = 2\n"
              "__all__ = ['os', 'dump', 'LIMIT', 'A', 'B', 'f', 'C', 'gone', 'inner', 'dumps']\n")
    assert _unbound_exports(ast.parse(source)) == ["dumps", "gone", "inner"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_modules_bind_every_exported_name(path):
    assert _unbound_exports(ast.parse(path.read_text(), filename=str(path))) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (a leading underscore, not a dunder) that
    a module binds with def, class or assignment, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                t.id
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for t in ast.walk(t)
                if isinstance(t, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def _orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module reads, neither as a loaded
    name nor as an attribute (module._name)."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_orphan_check_flags_an_unread_private_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _used():\n    return _LIMIT + _A\n"
                "def _orphan():\n    _used = 1\nclass _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from . import a\n\ndef f():\n    return a._used()\n",
    }
    assert _orphaned_private_names(sources) == [
        "a.py: _B (line 2)", "a.py: _Gone (line 7)", "a.py: _orphan (line 5)"
    ]


def test_package_private_helpers_all_have_a_reader():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert sum(len(_private_definitions(ast.parse(t))) for t in sources.values()) > 50
    assert _orphaned_private_names(sources) == []


def _environment_reads(tree: ast.Module) -> list[str]:
    """The environment variables a module reads through os.environ or
    os.getenv, with their lines.  A name that is not a string literal, and
    any other use of os.environ as a whole, reads as "?"."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "os"}
    imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "os" for a in n.names}

    def names(node):  # "environ" or "getenv" when node names one of them
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in modules else None
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    reads = []
    for node in ast.walk(tree):
        up, key = parents.get(node), None
        if names(node) == "getenv":
            if isinstance(up, ast.Call) and up.func is node and up.args:
                key = up.args[0]
        elif names(node) == "environ":
            if isinstance(up, ast.Subscript):  # os.environ[key]
                key = up.slice
            elif isinstance(up, ast.Attribute) and isinstance(parents.get(up), ast.Call):
                key = (parents[up].args or [None])[0]  # os.environ.get(key)
            elif isinstance(up, ast.Compare) and up.comparators == [node]:
                key = up.left  # key in os.environ
        else:
            continue
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        reads.append(f"{key.value if literal else '?'} (line {node.lineno})")
    return sorted(reads)


def test_environment_check_flags_every_variable_a_module_reads():
    source = ("import os\nimport os as system\nfrom os import environ as env, getenv\n"
              "a = os.environ.get('A')\nb = os.getenv('B', '1')\nc = system.environ['C']\n"
              "d = 'D' in env\ne = getenv(name)\nf = dict(os.environ)\ng = os.sep\n")
    assert _environment_reads(ast.parse(source)) == [
        "? (line 8)", "? (line 9)", "A (line 4)", "B (line 5)", "C (line 6)", "D (line 7)"
    ]


def test_package_reads_no_environment_variable_but_the_thread_cap():
    # one setting, read by harness.worker_count: any other is a new knob
    reads = {path.name: _environment_reads(ast.parse(path.read_text())) for path in SOURCES}
    reads = {name: found for name, found in reads.items() if found}
    assert list(reads) == ["harness.py"]
    assert [r.split(" ")[0] for r in reads["harness.py"]] == ["SETSTAT_THREADS"]


_SOLVERS = ("linprog", "lsq_linear", "minimize_scalar")


def _raises_solver_limit(fn: ast.FunctionDef) -> bool:
    """Whether a raise statement in fn names SolverLimitError."""
    return any(
        isinstance(node, ast.Raise) and node.exc is not None
        and any("SolverLimitError" in (getattr(n, "id", None), getattr(n, "attr", None))
                for n in ast.walk(node.exc))
        for node in ast.walk(fn)
    )


def _unguarded_solver_calls(tree: ast.Module) -> list[str]:
    """Calls of an iterative scipy solver, bare or as an attribute, whose
    innermost enclosing function raises no SolverLimitError (a call outside
    any function counts too), with their lines."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name not in _SOLVERS:
            continue
        fn = node
        while fn in parents and not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = parents[fn]
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _raises_solver_limit(fn)):
            found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def test_solver_check_flags_a_call_whose_function_cannot_report_a_failed_solve():
    source = ("from scipy.optimize import linprog, minimize_scalar\nimport scipy.optimize as opt\n"
              "def ok():\n    res = linprog(c)\n    if not res.success:\n"
              "        raise SolverLimitError(res.status)\n"
              "def ok2():\n    res = opt.lsq_linear(a, b)\n    if res.status < 1:\n"
              "        raise geometry.SolverLimitError('x')\n"
              "def bad():\n    res = linprog(c)\n    if not res.success:\n        return None\n"
              "def outer():\n    def inner():\n        return minimize_scalar(f)\n"
              "    raise SolverLimitError('x')\n"
              "top = opt.lsq_linear(a, b)\n")
    assert _unguarded_solver_calls(ast.parse(source)) == [
        "linprog (line 12)", "lsq_linear (line 19)", "minimize_scalar (line 17)"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_solver_calls_sit_in_functions_that_raise_solver_limit_error(path):
    # an iterative solver that stops at its cap or fails numerically must
    # not read as a result, such as an empty erosion
    assert _unguarded_solver_calls(ast.parse(path.read_text(), filename=str(path))) == []


def _eager_scipy_imports(tree: ast.Module) -> list[str]:
    """Imports of scipy or a scipy submodule that sit outside every function
    body, so that importing the module loads them, with their lines."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if not any(name == "scipy" or name.startswith("scipy.") for name in names):
            continue
        up = parents.get(node)
        while up is not None and not isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            up = parents.get(up)
        if up is None:
            found.append(f"{', '.join(names)} (line {node.lineno})")
    return found


def test_scipy_import_check_flags_an_import_outside_a_function():
    source = ("import scipy\nfrom scipy.special import ndtr\nimport numpy, scipy.optimize as opt\n"
              "from .scipy import x\nimport scipyx\ntry:\n    import scipy.spatial\n"
              "except ImportError:\n    pass\nclass C:\n    from scipy import stats\n"
              "    def f(self):\n        from scipy.optimize import linprog\n"
              "def g():\n    import scipy.special\n    def h():\n        import scipy\n")
    assert _eager_scipy_imports(ast.parse(source)) == [
        "scipy (line 1)", "scipy.special (line 2)", "numpy, scipy.optimize (line 3)",
        "scipy.spatial (line 7)", "scipy (line 11)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_modules_import_scipy_only_inside_functions(path):
    # import setstat stays about numpy's cost: in a bare process, import
    # scipy.optimize reads 76 MB of resident memory against 27 MB for numpy
    assert _eager_scipy_imports(ast.parse(path.read_text(), filename=str(path))) == []


_POOLS = ("ThreadPoolExecutor", "ProcessPoolExecutor")


def _pool_uses(tree: ast.Module) -> list[str]:
    """Uses of an executor class, bare or as an attribute (imports aside),
    each with the innermost function around it ("<module>" outside any) and
    its line."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if not isinstance(node, (ast.Name, ast.Attribute)) or name not in _POOLS:
            continue
        up = parents.get(node)
        while up is not None and not isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            up = parents.get(up)
        found.append(f"{up.name if up else '<module>'} (line {node.lineno})")
    return sorted(found)


def test_pool_check_flags_every_executor_use_with_its_function():
    source = ("import concurrent.futures as cf\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "def _ordered_map(fn, tasks):\n    with ThreadPoolExecutor(2) as pool:\n"
              "        return list(pool.map(fn, tasks))\n"
              "def other():\n    return cf.ProcessPoolExecutor()\n"
              "class C:\n    def m(self):\n        make = ThreadPoolExecutor\n        return make()\n"
              "POOL = cf.ThreadPoolExecutor(4)\n")
    assert _pool_uses(ast.parse(source)) == [
        "<module> (line 12)", "_ordered_map (line 4)", "m (line 10)", "other (line 7)"
    ]


def test_package_builds_its_one_thread_pool_in_ordered_map():
    # one pool in one place: a second pool would have to show that it pays
    uses = {path.name: _pool_uses(ast.parse(path.read_text())) for path in SOURCES}
    uses = {name: found for name, found in uses.items() if found}
    assert list(uses) == ["harness.py"]
    assert [u.split(" ")[0] for u in uses["harness.py"]] == ["_ordered_map"]


ROOT = Path(__file__).resolve().parents[1]
# Files whose calls count as uses of a parameter: the package, the demos and
# the benchmark, not the tests.
CALLERS = [*SOURCES, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]

# Defaulted parameters no call above passes, each kept for a stated reason.
UNPASSED_DEFAULTS_ALLOWED = {
    "cli.main(argv)": "the test seam: the console script reads sys.argv through the default",
    "randomsets.check_expectation_law(n_samples)": "the Monte-Carlo sample size of the law check",
    "randomsets.jensen_inclusion_gap(n_samples)": "the Monte-Carlo sample size of the Jensen check",
    "invopt.noise_support_box(tail)": "a model choice of the paper: subgaussian or subexponential",
    "kernelreg.consistency_curve(kernel)": "a model choice of the paper: the regression kernel",
    "invopt._BoxProgram(x_dim)": "both box programs run it; the tests build 2-D programs",
}


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """The defaulted parameters of a function, each with its position (None
    for a keyword-only one)."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    return params + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _callables(tree: ast.Module):
    """(name, callees, function, offset) for each module-level function and
    for the __init__ of each module-level class.  A call runs that __init__
    when it names one of callees, the class or a subclass in the module that
    defines no __init__ of its own, and its arguments fill the parameters
    from position offset = 1 on (after self)."""
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    inits = {name: f for name, c in classes.items() for f in c.body
             if isinstance(f, ast.FunctionDef) and f.name == "__init__"}

    def runs(name):  # the class whose __init__ a call to this one runs
        bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name) and b.id in classes]
        return name if name in inits or not bases else runs(bases[0])

    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top.name, {top.name}, top, 0
        elif isinstance(top, ast.ClassDef) and top.name in inits:
            yield top.name, {c for c in classes if runs(c) == top.name}, inits[top.name], 1


def _unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the module-level functions and class
    constructors in sources ("module.py": text) that no call in callers
    (source texts) passes, by keyword or by position.

    A call counts when it names the function or class bare or as an attribute; calls
    that unpack *args or **kwargs are skipped.  An argument that is the bare
    name of a defaulted parameter of the enclosing module-level function
    only forwards that parameter, so it counts once a call passes that one.
    """
    passes = []  # (callee, slot, None or the forwarded (function, name, position))
    for text in callers:
        for top in ast.parse(text).body:
            own = {}
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = {p: (top.name, p, i) for p, i in _defaulted_parameters(top)}
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                if name is None or starred or any(k.arg is None for k in node.keywords):
                    continue
                for slot, value in [*enumerate(node.args), *((k.arg, k.value) for k in node.keywords)]:
                    passes.append((name, slot, own.get(getattr(value, "id", None))))
    passed: set = set()
    while True:
        new = {
            (callee, slot)
            for callee, slot, src in passes
            if src is None or {(src[0], src[1]), (src[0], src[2])} & passed
        } - passed
        if not new:
            break
        passed |= new
    return sorted(
        f"{module.removesuffix('.py')}.{name}({p})"
        for module, text in sources.items()
        for name, callees, fn, offset in _callables(ast.parse(text))
        for p, i in _defaulted_parameters(fn)
        if not {(c, s) for c in callees for s in (p, None if i is None else i - offset)} & passed
    )


def test_unpassed_default_check_flags_a_parameter_no_call_sets():
    sources = {
        "a.py": "def f(x, n=3, *, tol=1e-9):\n    pass\n"
                "def g(x, k=1):\n    pass\n"
                "def h(y=0):\n    pass\n"
                "def fwd(m=2, z=0):\n    g(1, m)\n    f(1, tol=z)\n"
                "class P:\n    def __init__(self, dim=1, scale=2.0, tag=None):\n        pass\n"
                "class Q(P):\n    pass\n",
    }
    # f(n) is passed through an attribute, f(tol) through fwd's passed z;
    # g(k) only receives fwd's unpassed m, and h's calls unpack arguments;
    # P(3) passes dim (self is not passed) and a.Q(tag=...) passes the tag
    # of the __init__ Q inherits
    callers = [sources["a.py"], "b.f(1, 4)\nh(*args)\nh(**kw)\nfwd(z=1)\nP(3)\na.Q(tag=1)\n"]
    assert _unpassed_defaults(sources, callers) == ["a.P(scale)", "a.fwd(m)", "a.g(k)", "a.h(y)"]


def test_every_defaulted_parameter_is_passed_by_a_caller():
    sources = {path.name: path.read_text() for path in SOURCES}
    found = _unpassed_defaults(sources, [path.read_text() for path in CALLERS])
    assert [f for f in found if f not in UNPASSED_DEFAULTS_ALLOWED] == []
    assert sorted(UNPASSED_DEFAULTS_ALLOWED) == found  # no stale exception


def test_config_field_table_covers_exactly_the_preset_fields():
    # every field of every preset, and of its prior and u_grid objects, has
    # one table entry (a new preset field cannot skip validation), and the
    # table has no other (no stale entry)
    presets = harness.PRESETS.values()
    fields = {key for p in presets for key in p}
    fields |= {f"{key}.{sub}" for p in presets for key in ("prior", "u_grid") for sub in p.get(key, ())}
    assert sorted(harness._FIELDS) == sorted(fields)
    # null is a value exactly where the preset holds it
    nulls = {(kind, name) for name, field in harness._FIELDS.items() for kind in field.null}
    assert nulls == {(kind, key) for kind, p in harness.PRESETS.items() for key, v in p.items() if v is None}


def _opening_modules(sources: dict[str, str]) -> list[str]:
    """The modules ("module.py": text) that call open, bare or as an
    attribute (io.open, os.open, a path's open), each with the lines."""
    found = []
    for module, text in sorted(sources.items()):
        lines = [
            node.lineno
            for node in ast.walk(ast.parse(text, filename=module))
            if isinstance(node, ast.Call)
            and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        if lines:
            found.append(f"{module} (lines {', '.join(map(str, sorted(lines)))})")
    return found


def test_open_check_flags_every_call_that_opens_a_file():
    sources = {
        "a.py": "import io, os\nfrom pathlib import Path\n\ndef f(p):\n    with open(p) as fh:\n"
                "        return fh.read()\nio.open('x')\nos.open('y', 0)\nPath('z').open()\n",
        "b.py": "def opener():\n    return 'open'\nreopen = 1\nopen_files = []\n",
    }
    assert _opening_modules(sources) == ["a.py (lines 5, 7, 8, 9)"]


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in SOURCES}


def test_only_harness_and_textio_open_files():
    # geometry, kernelreg, invopt and randomsets do no file I/O: the text of
    # every file is textio's, and the harness reads the config
    found = _opening_modules(_package_sources())
    assert [entry.split(" ")[0] for entry in found] == ["harness.py", "textio.py"]


def test_open_check_flags_a_scratch_open_in_kernelreg():
    sources = _package_sources()
    sources["kernelreg.py"] += "\n\ndef _scratch(path):\n    with open(path, 'w') as fh:\n        fh.write('')\n"
    found = _opening_modules(sources)
    assert [entry.split(" ")[0] for entry in found] == ["harness.py", "kernelreg.py", "textio.py"]
