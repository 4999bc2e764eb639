"""Source hygiene: no unused imports in `qes`, no numpy anywhere in it,
every annotation resolvable, `import qes` loading no module of it, every
name the benchmark's tracer wraps still defined, and no function or method
in `qes` that only the tests reach."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qes").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names the module imports but does not use; `qes` re-exports nothing."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # a quoted forward reference, e.g. "QuadScalar"
    return [name for name in imported if name not in used]


def test_every_import_is_used_or_exported():
    found = {path.name: unused_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_import_check_sees_an_unused_name():
    assert unused_imports("from typing import List, Union\nx: List[int] = []\n") == ["Union"]


def unresolved_annotations(module) -> list:
    """`module.name` of each class, function or method defined in `module`
    whose annotations `typing.get_type_hints` cannot resolve.  With
    `from __future__ import annotations` every annotation is a string, so a
    name the module never imports fails only here."""
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            # A property's annotations sit on its getter.
            members = [(f"{name}.{attr}", getattr(member, "fget", member))
                       for attr, member in vars(obj).items()]
            targets = [(name, obj)] + [(label, member) for label, member in members
                                       if inspect.isfunction(member)]
        elif inspect.isfunction(obj):
            targets = [(name, obj)]
        else:
            continue
        for label, target in targets:
            try:
                typing.get_type_hints(target)
            except NameError:
                found.append(f"{module.__name__}.{label}")
    return found


def test_every_annotation_in_qes_resolves():
    modules = [importlib.import_module("qes" if path.stem == "__init__" else f"qes.{path.stem}")
               for path in SOURCES]
    assert [label for module in modules for label in unresolved_annotations(module)] == []


def numpy_imports(source: str) -> list:
    """The numpy modules a source file imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] == "numpy"]


def test_no_module_imports_numpy():
    found = {path.name: numpy_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_numpy_check_sees_a_local_import():
    source = "def f():\n    from numpy.linalg import eigvalsh\n    import numpy as np\n"
    assert sorted(numpy_imports(source)) == ["numpy", "numpy.linalg"]


def test_importing_the_package_loads_no_module_of_it():
    # The package holds only `__version__`; names come from the modules.
    probe = "import qes, sys; print(sorted(m for m in sys.modules if m.startswith('qes')))"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(
        os.environ, PYTHONPATH=str(SOURCES[0].parent.parent)), capture_output=True, text=True)
    assert done.stdout.strip() == "['qes']", done.stderr


def numpy_loaded_after(*argv: str) -> bool:
    """Whether `qes.cli` has numpy in sys.modules after importing (and running argv)."""
    src = str(SOURCES[0].parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys\nfrom qes.cli import main\nif sys.argv[1:]: main(sys.argv[1:])\n"
             "print('numpy' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode in (0, 1), done.stderr  # 1: the reference discrepancy
    return done.stderr.strip() != "False"


def test_importing_the_cli_leaves_numpy_unloaded():
    assert not numpy_loaded_after()


def test_the_rabi_and_table_runs_leave_numpy_unloaded():
    # Both reach the Fock oracle, which runs in plain Python.
    assert not numpy_loaded_after("rabi", "--n", "2", "--type", "I", "--json")
    assert not numpy_loaded_after("table1", "--cutoff", "100", "--json")


def traced_names(source: str) -> list:
    """The `module.name` pairs wrapped by the `functions` tuple in `install`."""
    install = next(node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    table = next(node.value for node in ast.walk(install) if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "functions")
    return [(entry.elts[1].value.id, entry.elts[1].attr) for entry in table.elts]


def test_every_traced_name_exists_in_qes():
    # The tracer rebinds these names at install time, so a rename in `qes`
    # would stop `perfbench/traced.py` before it times anything.
    names = traced_names((ROOT / "perfbench" / "traced.py").read_text())
    assert ("rabi", "_extension_nullspace") in names and len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"qes.{module}"), name)]
    assert missing == []


def names_in(source: str, imports: bool = False) -> set:
    """What each `ast.Name` and `ast.Attribute` in `source` reads, plus each
    imported name if `imports`.  An attribute read on a name also counts as
    `name.attr`, and one on `cls` or `self` inside a class as `Class.attr`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{inner.attr}" for inner in ast.walk(node)
                         if isinstance(inner, ast.Attribute)
                         and getattr(inner.value, "id", None) in ("cls", "self"))
    return names


def definitions(source: str) -> list:
    """(qualified name, the read that reaches it) of each module-level
    function and of each method of a module-level class other than a dunder.
    A method is reached by a read of its name, a classmethod or staticmethod
    only by one of `Class.name` (`names_in`)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                        item.name.startswith("__") and item.name.endswith("__")):
                    continue
                qualified = f"{node.name}.{item.name}"
                bound = any(getattr(dec, "id", None) in ("classmethod", "staticmethod")
                            for dec in item.decorator_list)
                found.append((qualified, qualified if bound else item.name))
    return found


def unreached_functions(modules: dict, pinned: set) -> list:
    """`module.name` of each function and `module.Class.name` of each method
    (`definitions`) in `modules` ({file name: source}) that no module reads
    and `pinned` does not hold.  A module's use of its own function counts;
    the re-exports of `__init__.py` do not.  A method counts as read when any
    module reads an attribute of its name; a classmethod or staticmethod
    only when it is read as `Class.name`, or as `cls.name` or `self.name`
    inside its own class."""
    read = set().union(*(names_in(source) for name, source in modules.items()
                         if name != "__init__.py"))
    return sorted(f"{name[:-3]}.{qualified}" for name, source in modules.items()
                  for qualified, short in definitions(source)
                  if short not in read | pinned)


def test_every_function_in_qes_is_reached_from_qes_or_pinned():
    # Only the benchmark's tracer and the acceptance criteria may pin a name
    # that no `qes` module uses; what only other tests need lives in
    # `tests/_algebra.py`.
    pinned = set().union(*(names_in(path.read_text(), imports=True) for path in (
        ROOT / "perfbench" / "traced.py", ROOT / "tests" / "test_acceptance.py")))
    modules = {path.name: path.read_text() for path in SOURCES}
    assert unreached_functions(modules, pinned) == []


def test_the_reach_check_sees_a_function_only_reexported():
    modules = {"__init__.py": "from .a import f, h\n",
               "a.py": "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\n"
                       "def h():\n    pass\n",
               "b.py": "from . import a\n\na.f()\n"}
    assert unreached_functions(modules, set()) == ["a.h"]
    assert unreached_functions(modules, {"h"}) == []


def test_the_reach_check_sees_a_method_no_module_reads():
    modules = {"a.py": "class C:\n    def __init__(self):\n        self.f()\n\n"
                       "    def f(self):\n        pass\n\n    def g(self):\n        pass\n"}
    assert unreached_functions(modules, set()) == ["a.C.g"]


def test_the_reach_check_sees_a_classmethod_read_only_as_another_class_field():
    modules = {"a.py": "class C:\n    @classmethod\n    def d(cls):\n        return cls.e()\n\n"
                       "    @staticmethod\n    def e():\n        pass\n\n\n"
                       "class Q:\n    def __init__(self, d):\n        self.d = d\n\n"
                       "    def f(self):\n        return self.d\n",
               "b.py": "from .a import Q\n\nQ(1).f()\n"}
    assert unreached_functions(modules, set()) == ["a.C.d"]
    assert unreached_functions({**modules, "c.py": "from .a import C\n\nC.d()\n"}, set()) == []
