"""Static checks on the package source: nothing keeps what no code reads."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mipcert"
MODULES = sorted(SRC.glob("*.py"))


def _used_names(tree):
    """Every name read as a variable or as an attribute in `tree`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    used = set().union(*(_used_names(t) for t in trees.values()))
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert not unused, f"private definitions nothing references: {unused}"


def _library_layout_names():
    """The identifiers inside backticks in the README's "Library layout"
    section: the entry points it documents."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return {name for span in re.findall(r"`([^`]*)`", section)
            for name in re.findall(r"\w+", span)}


def test_no_unreferenced_public_functions():
    """A public top-level function or class is referenced somewhere in the
    package, or is an entry point the README's "Library layout" names;
    code only tests call belongs with the tests, and an exception class
    nothing raises or subclasses goes."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    used = set().union(*(_used_names(t) for t in trees.values())) | _library_layout_names()
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, f"public definitions nothing in the package references: {unused}"


def _unread_parameters(function):
    """Parameters of `function` that its body never reads (self and cls
    aside)."""
    args = function.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                              args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in function.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [p for p in params if p not in read and p not in ("self", "cls")]


def test_private_functions_read_every_parameter():
    unread = [f"{path.name}:{node.name}({p})" for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_") and not node.name.startswith("__")
              for p in _unread_parameters(node)]
    assert not unread, f"private functions with parameters nothing reads: {unread}"


def test_verifier_loads_neither_numpy_nor_a_process_pool():
    """Verifying, certifying, the command line and the oracle run with numpy
    blocked (a `None` entry in `sys.modules` makes its import fail), and
    load neither numpy nor multiprocessing."""
    code = textwrap.dedent("""\
        import sys
        sys.modules['numpy'] = None
        import mipcert.certfile, mipcert.certifier, mipcert.cli, mipcert.oracle
        problem, _ = mipcert.certfile.parse_text(
            'VAR 2\\nINT 1 2\\nOBJ -1 0\\nCON 1 <= 2 2 3\\n'
            'CON 2 <= 1 0 1\\nCON 3 >= 1 0 0\\nCON 4 <= 0 1 1\\nCON 5 >= 0 1 0\\n')
        assert mipcert.oracle.brute_force_optimum(problem) == ('optimal', -1, (1, 0))
        print(sorted(m for m in ('numpy', 'multiprocessing') if sys.modules.get(m)))
        """)
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.strip() == "[]"


def test_true_division_only_in_quotient():
    """`/` on two ints gives a float, so every division goes through
    `exact.quotient`, which keeps the result exact."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "exact.py":
            allowed = {id(node) for f in tree.body
                       if isinstance(f, ast.FunctionDef) and f.name == "quotient"
                       for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div) and id(node) not in allowed]
    assert not found, f"true division outside exact.quotient: {found}"


def test_no_tuple_of_a_generator():
    """`tuple(x for ...)` is not allowed in the package: kept tuples built
    that way raised the certifier's peak memory by 44% on the `stream`
    benchmark, where `tuple([x for ...])` did not.  Build from a list."""
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tuple"
             and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)]
    assert not found, f"tuple() of a generator expression: {found}"


_LIVE_SETS = ("core", "derived")
_DICT_WRITES = ("pop", "popitem", "clear", "update", "setdefault")


def _writes_live_set(node):
    """True iff `node` writes a `.core` or `.derived` map: an item
    assignment or `del`, or a call of a dict method that changes it."""
    def live(value):
        return isinstance(value, ast.Attribute) and value.attr in _LIVE_SETS
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, (ast.Store, ast.Del)) and live(node.value)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_WRITES and live(node.func.value))


def test_only_the_configuration_writes_its_live_set():
    """Rules change the core and derived sets through
    `Configuration.add`, `transfer` and `remove` only: the pool multiset
    and the pool box's journal are kept there, so a write anywhere else
    would leave them stale."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        door = set()
        if path.name == "model.py":
            door = {id(node) for c in tree.body
                    if isinstance(c, ast.ClassDef) and c.name == "Configuration"
                    for node in ast.walk(c)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in door and _writes_live_set(node)]
    assert not found, f"live set written outside Configuration: {found}"


# An AffineMap decides at construction whether it is a relabelling, and
# keeps that with its output indices; a later write to a row would leave
# both stale.  The mutators in tests/mutation.py and bench/workloads.py do
# edit `rows`, but only before fmt_step renders the step again, and the
# re-parse builds a fresh map.
_MAP_FIELDS = ("rows", "relabel", "outputs")
_CONTAINER_WRITES = _DICT_WRITES + ("append", "extend", "insert", "remove")


def _map_field(node):
    """The `x.rows` (or other AffineMap field) attribute that `node`, a
    store target or a method's receiver, reaches through its subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node if isinstance(node, ast.Attribute) and node.attr in _MAP_FIELDS else None


def _map_field_writes(tree):
    """(node, field) for every assignment, `del` or mutating method call on
    an AffineMap field or on an item of one, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            field = _map_field(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _CONTAINER_WRITES:
            field = _map_field(node.func.value)
        else:
            continue
        if field is not None:
            yield node, field


def _late_map_field_writes(tree):
    """The line numbers of the writes `_map_field_writes` finds, but those
    in AffineMap.__init__ and those through `self` in another class, which
    write that class's own field of the same name."""
    init, own = set(), set()
    for c in ast.walk(tree):
        if not isinstance(c, ast.ClassDef):
            continue
        if c.name == "AffineMap":
            init |= {id(n) for f in c.body
                     if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                     for n in ast.walk(f)}
        else:
            own |= {id(n) for n in ast.walk(c)}
    return [node.lineno for node, field in _map_field_writes(tree)
            if id(node) not in init
            and not (id(node) in own and isinstance(field.value, ast.Name)
                     and field.value.id == "self")]


def test_no_affine_map_row_is_written_after_construction():
    found = [f"{path.name}:{line}" for path in MODULES
             for line in _late_map_field_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"AffineMap rows written after construction: {found}"
    # the scan sees each kind of late write, and spares the two kinds allowed
    probe = textwrap.dedent("""\
        class AffineMap:
            def __init__(self):
                self.rows = {}
                self.rows[1] = ({2: 1}, 0)
            def bump(self):
                self.rows[1] = ({2: 2}, 0)
        class Table:
            def __init__(self):
                self.rows = []
                self.rows.append(1)
        def edit(w):
            w.rows[1][0][2] = 3
            del w.rows[1]
            w.rows.update({})
            w.relabel = None
        """)
    assert sorted(_late_map_field_writes(ast.parse(probe))) == [6, 12, 13, 14, 15]
