"""Static checks of src/bqcontrol with the standard-library ast module.

Every imported name is used in its module, and every private module-level
function, class or constant (a name with one leading underscore) is
referenced somewhere in src/bqcontrol.  Every public name (bqcontrol.__all__)
has a caller: the library outside the name's own def or class, a bench/ or
demos/ script, README.md or docs/.  A helper left behind by a refactor, or
an import it leaves stale, fails here.  The library also starts no threads
or processes and reads no environment variable: its behaviour is set by its
arguments alone.  It imports only the standard library and the runtime
dependencies pyproject.toml declares, and reaches no private name of those
(a dotted segment starting with "_").
"""

import ast
import glob
import os
import re
import sys

import bqcontrol

SRC = os.path.dirname(os.path.abspath(bqcontrol.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def read_names(tree):
    """Names read anywhere in the tree: loaded names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def used_names(tree):
    """read_names plus the strings of a module-level __all__ (re-exports)."""
    used = read_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return used


def imported_names(tree):
    """(name bound, line) of every import except __future__ and *."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def private_definitions(tree):
    """(name, line) of module-level private functions, classes, constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_modules_found():
    assert {"linalg.py", "models.py", "synthesis.py"} <= set(MODULES)


def test_every_import_is_used():
    unused = []
    for name in MODULES:
        tree = parse(name)
        used = used_names(tree)
        unused += [f"{name}:{line}: {bound}"
                   for bound, line in imported_names(tree) if bound not in used]
    assert unused == []


def test_every_private_definition_is_referenced():
    used = set().union(*(used_names(parse(name)) for name in MODULES))
    dead = [f"{name}:{line}: {private}"
            for name in MODULES
            for private, line in private_definitions(parse(name))
            if private not in used]
    assert dead == []


def test_every_public_name_has_a_caller():
    called = set()
    for name in MODULES:
        for node in parse(name).body:  # a def or class does not call itself
            called |= read_names(node) - {getattr(node, "name", None)}
    for pattern in ("bench/*.py", "demos/*.py", "README.md", "docs/*.md"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path) as fh:
                called.update(re.findall(r"\w+", fh.read()))
    assert [n for n in bqcontrol.__all__ if n not in called] == []


CONCURRENCY = {"threading", "multiprocessing", "concurrent"}
ENVIRONMENT = {"environ", "getenv", "environb", "getenvb"}


def test_no_threads_and_no_environment_reads():
    found = []
    for name in MODULES:
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.Import):
                mods, names = [a.name for a in node.names], []
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
                names = ([a.name for a in node.names]
                         if node.module == "os" else [])
            elif isinstance(node, ast.Attribute):  # os.environ, os.getenv
                mods, names = [], [node.attr]
            else:
                continue
            found += [f"{name}:{node.lineno}: import {m}" for m in mods
                      if m.split(".")[0] in CONCURRENCY]
            found += [f"{name}:{node.lineno}: {n}" for n in names
                      if n in ENVIRONMENT]
    assert found == []


def declared_dependencies():
    """The runtime dependencies pyproject.toml declares: numpy and mpmath."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        block = re.search(r"^dependencies = \[(.*?)\]", fh.read(),
                          re.M | re.S).group(1)
    return set(re.findall(r'"([A-Za-z0-9_]+)', block))


def test_imports_only_declared_dependencies():
    allowed = declared_dependencies() | sys.stdlib_module_names
    stray = []
    for name in MODULES:
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:  # relative imports stay inside bqcontrol
                continue
            stray += [f"{name}:{node.lineno}: import {m}" for m in mods
                      if m.split(".")[0] not in allowed]
    assert stray == []


def private_dependency_uses(tree, deps):
    """(line, dotted name) of each import or attribute chain that reaches a
    name of a dependency in `deps` whose dotted segment starts with "_",
    such as np.linalg._umath_linalg, named up to that segment."""
    bound = set()  # local names an import binds to a dependency or its parts
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            chains = [(a.name.split("."), a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            chains = [(node.module.split(".") + [a.name], a.asname or a.name)
                      for a in node.names]
        else:
            continue
        for chain, local in chains:
            if chain[0] in deps:
                bound.add(local)
                if any(part.startswith("_") for part in chain):
                    yield node.lineno, ".".join(chain)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                yield node.lineno, ".".join([base.id] + parts[::-1])


def test_no_private_name_of_a_dependency():
    deps = declared_dependencies()
    found = [f"{name}:{line}: {dotted}" for name in MODULES
             for line, dotted in private_dependency_uses(parse(name), deps)]
    assert found == []
    # the check itself sees a private gufunc, a private module and a
    # private name imported from a public one
    bypass = ast.parse("import numpy as np\n"
                       "import numpy.linalg._linalg\n"
                       "from mpmath import _private as p\n"
                       "w, V = np.linalg._umath_linalg.eigh_lo(H)\n"
                       "np.linalg.eigh(H)\n")
    assert list(private_dependency_uses(bypass, deps)) == [
        (2, "numpy.linalg._linalg"), (3, "mpmath._private"),
        (4, "np.linalg._umath_linalg")]
