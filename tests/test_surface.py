"""Everything the package defines is used by the package, and numpy only where arrays pay.

A function, class, method or property that only the tests call is either
a second way of doing a job the commands already do, or no job at all.
The scan parses src/sectorflow with ast. A module-level def or class is
used when a name or attribute of that spelling is read anywhere in the
package outside its own body; a method or property, when an attribute of
that spelling is read. Imports and the export list are not reads.

Dunders and argparse's error hook are exempt. Every other exception is in
ALLOWED, with the acceptance criterion or benchmark layer that calls it.

The package's one list of public names is sectorflow.__all__, built from
__init__'s table of each module's exports; no other module assigns
__all__. Inside the package a leading underscore marks a module's own
name, so no module imports another's underscored name.

numpy is imported by the audit (verify), the Roe algebra (roe) and the two
array routines the audit calls; the builder, the exporters and analyze run
on plain floats through evaluate, so a cold build never loads it.

The audit reads a flow through evaluate: outside evaluate_many, verify
reads no stored state or wave node value of a piece.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import sectorflow

SRC = Path(__file__).resolve().parents[1] / "src" / "sectorflow"

ALLOWED = {
    "roe.jacobian": "acceptance criteria 3 and 5: the frame Jacobian",
    "roe.roe_matrix": "acceptance criterion 3; solver-sweep layer roe.roe_matrix_us",
    "roe.eigensystem": "acceptance criterion 3; solver-sweep layer roe.eigensystem_us",
    "roe.EigenSystem.reconstruct": "acceptance criterion 3: R diag(lambda) L gives the Roe matrix",
    "roe.genuine_nonlinearity": "acceptance criterion 4",
    "pmwave.pm_state_derivative": "acceptance criterion 5: a wave's U' in the Jacobian's kernel",
    "shock.rh_residual": "acceptance criterion 2: the jump conditions of the shock sweep",
    "verify.StructureReport.named": "acceptance criterion 7 reads the structure checks by name",
    "shock.AdmissibilityReport.margin": (
        "the admissibility report's reader of one condition's margin, beside"
        " StructureReport.named; the shock-sweep tests read the Lax margins with it"
    ),
}
EXEMPT = {"cli._Parser.error"}  # argparse calls it on a bad flag


def _modules():
    """Module name -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _reads(node):
    """(spelling, is_attribute) of every name or attribute read under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, False
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr, True


def _definitions(module, tree):
    """(qualified name, node, is_member) of each top-level def or class and its members."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield "%s.%s.%s" % (module, node.name, member.name), member, True


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    unused = []
    for module, tree in sorted(trees.items()):
        for qualname, node, member in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = Counter(_reads(node))
            count = reads[name, True] - own[name, True]
            if not member:
                count += reads[name, False] - own[name, False]
            if count <= 0:
                unused.append(qualname)
    return unused


def test_every_definition_is_used_by_the_package():
    unused = set(unused_definitions())
    assert sorted(unused - set(ALLOWED) - EXEMPT) == [], "only the tests use these"
    # an exception whose name has gained a caller in the package, or is gone, goes too
    assert sorted((set(ALLOWED) | EXEMPT) - unused) == []


# where numpy may be imported: a module (at its top level) or module.function
NUMPY_IMPORTS = {"verify", "roe", "gas.ray_fluxes", "pmwave.pm_wave_arrays"}


def numpy_imports():
    """Where the package imports numpy: a module's top level, or the top-level def or class."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                elif isinstance(inner, ast.ImportFrom) and inner.level == 0:
                    names = [inner.module]
                else:
                    continue
                if any(n == "numpy" or n.startswith("numpy.") for n in names):
                    named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    found.add("%s.%s" % (path.stem, node.name) if named else path.stem)
    return found


def test_numpy_is_imported_only_where_arrays_are_used():
    assert numpy_imports() == NUMPY_IMPORTS


def test_only_the_package_assigns_all():
    assigning = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    }
    assert assigning == {"__init__"}


def test_no_module_imports_another_modules_private_name():
    private = sorted(
        "%s: from %s%s import %s" % (module, "." * node.level, node.module or "", alias.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sectorflow"))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


def test_each_export_is_defined_in_the_module_its_table_names():
    for module, names in sectorflow._EXPORTS.items():
        home = importlib.import_module("sectorflow." + module)
        for name in names:
            assert getattr(home, name).__module__ == home.__name__, name


# a piece's stored values, which the audit does not read outside evaluate_many
STORED = {"state", "rhos", "Ls", "drhos", "dLs", "s_ref"}


def test_the_audit_reads_a_flow_through_evaluate():
    """Aim 3: the audit checks what evaluate returns, not what the builder stored.

    Outside evaluate_many, the batched evaluate, verify reads a piece's
    angles, kind and orientation only: no stored state, node value, slope
    or isentrope constant. From pmwave it takes the wave type and the two
    routines that evaluate a wave.
    """
    tree = _modules()["verify"]
    stored = sorted(
        "%s reads .%s" % (node.name, name)
        for node in tree.body
        if getattr(node, "name", None) != "evaluate_many"
        for name, is_attribute in _reads(node)
        if is_attribute and name in STORED
    )
    assert stored == []
    from_pmwave = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pmwave"
        for alias in node.names
    }
    assert from_pmwave == {"PMWave", "pm_wave_arrays", "pm_wave_state"}
