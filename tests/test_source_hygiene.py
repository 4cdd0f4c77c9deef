"""Static checks of src/bqcontrol with the standard-library ast module.

Every imported name is used in its module, and every private module-level
function, class or constant (a name with one leading underscore) is
referenced somewhere in src/bqcontrol.  Every public name (bqcontrol.__all__)
has a caller: the library outside the name's own def or class, a bench/ or
demos/ script, README.md or docs/.  A helper left behind by a refactor, or
an import it leaves stale, fails here.  The library also starts no threads
or processes and reads no environment variable: its behaviour is set by its
arguments alone.
"""

import ast
import glob
import os
import re

import bqcontrol

SRC = os.path.dirname(os.path.abspath(bqcontrol.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
# public names with no caller yet, and why each stays
UNCALLED = {"tail_cutoff": "ROADMAP item 14 wires it into bqc as the paper's "
                           "choice of the larger truncation"}


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
    uncalled = {n for n in bqcontrol.__all__ if n not in called}
    assert uncalled == set(UNCALLED)


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
