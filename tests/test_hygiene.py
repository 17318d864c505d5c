"""Source hygiene: every module-level import, private definition, public
name and class member is used, and importing the package loads no
module that only some calls need."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypervol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}

# Code whose reads count as reaching a public name: the library (cli.py
# among it), the benchmark harness and the acceptance gates.  Unit tests
# do not count: a name only they call is reached in name only.
REACHING = dict(TREES)
for _path in [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")] + [ROOT / "tests" / "test_acceptance.py"]:
    REACHING[_path] = ast.parse(_path.read_text(encoding="utf-8"))

# Public names kept although only unit tests reach them.
UNREACHED_ALLOWED = {
    # the writer of the point-file format that `load_points` reads; it is
    # how a user makes a points_path file, and the reader's tests use it
    "save_points",
    # the chart dispatcher: the polar/uv cross-check of the section
    # integral, the test that the two charts agree, runs through it
    "section_integral",
}

# Class members ("Class.member") kept although nothing in REACHING reads them.
UNREAD_MEMBERS_ALLOWED = {
    # the payload of the exception, for callers that catch it
    "DegenerateHullError.affine_rank",
}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _all_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _referenced_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name listed in __all__ is a re-export, which counts as a use
    names.update(_all_names(tree))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = TREES[path]
    unused = sorted(set(_imported_names(tree)) - _referenced_names(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def _reads_outside(tree, skip):
    """Name and Attribute nodes read anywhere in tree except inside `skip`.

    Only reads count: the binding `MC_CHUNK = 65536` does not use MC_CHUNK.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _names_outside(tree, skip):
    """Names and attributes read anywhere in tree except inside `skip`."""
    for node in _reads_outside(tree, skip):
        yield node.id if isinstance(node, ast.Name) else node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_private_definitions_are_used(path):
    unused = []
    for node in TREES[path].body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            continue
        # a reference inside the definition itself (recursion) does not count
        if not any(node.name in set(_names_outside(tree, node))
                   for tree in TREES.values()):
            unused.append(node.name)
    assert not unused, f"{path.name} defines but nothing uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_are_reached(path):
    defs = {node.name: node for node in TREES[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unreached = [
        name for name in _all_names(TREES[path])
        if name not in UNREACHED_ALLOWED
        # a read inside the name's own definition (recursion) does not count
        and not any(name in set(_names_outside(tree, defs.get(name)))
                    for tree in REACHING.values())
    ]
    assert not unreached, (
        f"{path.name} exports {unreached}, which no library code, CLI command, "
        "benchmark or acceptance gate reaches")


def test_package_reexports_are_public():
    stray = [
        f"{node.module}.{alias.name}"
        for node in TREES[SRC / "__init__.py"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in _all_names(TREES[SRC / f"{node.module}.py"])
    ]
    assert not stray, f"hypervol re-exports names missing from __all__: {stray}"


def _attribute_reads(tree):
    """How often each attribute name is read (x.name) in tree."""
    return collections.Counter(node.attr for node in _reads_outside(tree, None)
                               if isinstance(node, ast.Attribute))


def _class_members(cls):
    """(name, own definition or None) for what a class defines: methods and
    properties, __slots__ entries, dataclass fields and self.x stores."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, None
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
            for name in ast.literal_eval(node.value):
                yield name, None
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"):
            yield node.attr, None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_class_members_are_read(path):
    reads = sum(map(_attribute_reads, REACHING.values()), collections.Counter())
    unread = set()
    for cls in TREES[path].body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for name, own in _class_members(cls):
            if (name.startswith("__") and name.endswith("__")
                    or f"{cls.name}.{name}" in UNREAD_MEMBERS_ALLOWED):
                continue
            # a read inside the member's own definition does not count
            own_reads = _attribute_reads(own)[name] if own else 0
            if reads[name] <= own_reads:
                unread.add(f"{cls.name}.{name}")
    assert not unread, (
        f"{path.name} defines class members that nothing reads by name: "
        f"{sorted(unread)}")


def test_import_defers_scipy_integrate():
    # scipy.integrate pulls in scipy.optimize; only the polar chart of
    # the cone section integrals needs it, and it imports it on first use
    code = ("import sys; import hypervol, hypervol.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_closed_paths_load_no_quadpack():
    # theorem 2 in 2D and 3D and the packing floor are closed forms end to end
    code = """
import sys
from hypervol import RunConfig, extension_volume, generate_points
from hypervol.experiments import cmd_theorem2_check
cmd_theorem2_check(RunConfig(command="theorem2-check", dims=(2, 3), instances=1,
                             mc_samples=20_000, boundary_samples=64))
for n in (2, 3):
    extension_volume(generate_points("uniform-ball", n, 10, 3), 0.7,
                     check_lower_bound=True)
print('scipy.integrate' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_vertex_cone_paths_load_no_quadpack():
    # a run shaped like the certificates benchmark: the bounding-integral
    # table, planar and 3D cone reports and the facet decomposition
    code = """
import sys
import numpy as np
from hypervol import (RunConfig, Simplex, cone_report, convex_hull,
                      generate_points, verify_facet_decomposition)
from hypervol.experiments import cmd_cone_table
_, _, failures, _ = cmd_cone_table(RunConfig(command="cone-table"))
assert failures == [], failures
for n in (2, 3):
    poly = convex_hull(generate_points("uniform-ideal", n, 12, 3))
    cone_report(poly, poly.vertices[0], 32)
    poly = convex_hull(generate_points("uniform-ball", n, 12, 3))
    verts = np.vstack([np.zeros(n), poly.vertices[list(poly.facets[0])]])
    verify_facet_decomposition(Simplex(verts), poly, budget=20_000)
print('scipy.integrate' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
