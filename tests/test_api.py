"""The public surface: what `__all__`, the CLI, perfbench/ and the README
promise exists, no module or test file carries an import it never uses,
and no private name or slot is left that nothing reads."""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treepin"
MODULES = ["treepin"] + [
    f"treepin.{m.name}" for m in pkgutil.iter_modules([str(PACKAGE)])
]


def _imports_from_treepin(path: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) for every `from treepin... import name` in a file of
    perfbench/, and every relative `from .module import name` in a file of
    the package; `import treepin.x` gives (treepin.x, "")."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = "treepin" + (f".{node.module}" if node.module else "")
            elif node.module and node.module.split(".")[0] == "treepin":
                module = node.module
            else:
                continue
            out.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(
                (alias.name, "")
                for alias in node.names
                if alias.name.split(".")[0] == "treepin"
            )
    return out


def test_every_exported_name_resolves():
    missing = []
    for module in MODULES:
        mod = importlib.import_module(module)
        missing += [f"{module}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_names_the_cli_and_perfbench_import_resolve():
    files = sorted((ROOT / "perfbench").glob("*.py")) + [PACKAGE / "cli.py"]
    pairs = set().union(*(_imports_from_treepin(p) for p in files))
    assert ("treepin.cli", "") in pairs  # perfbench drives the CLI in process
    missing = [
        f"{module}.{name}"
        for module, name in sorted(pairs)
        if not hasattr(importlib.import_module(module), name or "__name__")
    ]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """`line name` for every name an import binds and the module never
    reads; a name listed in `__all__` counts as read.  A name read only in
    a quoted annotation is reported too."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= {e.value for e in node.value.elts}
    return [f"{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("import math\nfrom x import y as z\nz()\n") == ["1 math"]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        unused += [f"{path.relative_to(ROOT)}:{u}" for u in _unused_imports(text)]
    assert unused == []


def _names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name the tree loads and every attribute it reads, outside the
    subtree `skip`."""
    reads = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each module-level name with one leading underscore, and the
    statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in targets if name[:1] == "_" and name[:2] != "__")
    return out


def _unread_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module name` for every module-level private name of `modules` that
    no source in `modules` or `readers` reads outside its own definition."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    reads = {name: _names_read(tree) for name, tree in trees.items()}
    outside = set().union(*(_names_read(ast.parse(text)) for text in readers))
    unread = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(r for m, r in reads.items() if m != module))
        for name, node in _private_definitions(tree).items():
            if name not in elsewhere and name not in _names_read(tree, skip=node):
                unread.append(f"{module} {name}")
    return unread


def test_every_private_name_is_read():
    toy = {
        "a": "def _f():\n    return _f()\n_x = 1\n_y = _x\ndef _g():\n    pass\n",
        "b": "import a\na._g\n",
    }
    assert _unread_private_names(toy, []) == ["a _f", "a _y"]
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unread_private_names(modules, readers) == []


def _unread_slots(modules: list[str], readers: list[str]) -> list[str]:
    """`Class.slot` for every `__slots__` entry of a class in `modules` that
    no source in `modules` or `readers` loads as an attribute: a slot that
    is only ever written is dead state.  An attribute that is only called
    (`loop.one(...)`) names a method, so it is not a read of a slot."""
    trees = [ast.parse(text) for text in modules + readers]
    called = {
        id(node.func) for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in called
    }
    unread = []
    for tree in trees[: len(modules)]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    slots = [e.value for e in stmt.value.elts]
                    unread += [f"{cls.name}.{name}" for name in slots if name not in loaded]
    return unread


def test_every_slot_is_read():
    toy = "class A:\n    __slots__ = ('x', 'y')\n    def f(self):\n        self.x = self.y = 1\n"
    assert _unread_slots([toy], []) == ["A.x", "A.y"]
    assert _unread_slots([toy], ["def g(a):\n    return a.x\n"]) == ["A.y"]
    assert _unread_slots([toy], ["def g(a):\n    return a.x()\n"]) == ["A.x", "A.y"]
    modules = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unread_slots(modules, readers) == []


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    namespace: dict = {}
    results = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            results[stmt.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    rep = namespace["rep"]
    assert rep.cw_bits == rep.rl_bits == 1.0
    lines = block.splitlines()
    claimed = [n for n in results if lines[n - 1].rstrip().endswith("# True")]
    assert len(claimed) == 2  # all_pass and perfect
    assert all(results[n] is True for n in claimed)
