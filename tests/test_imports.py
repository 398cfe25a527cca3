"""Every name a package module imports is read somewhere in that module,
every public function, class and method is reached from the package, the
demos or the benchmark, and the runner needs no more than numpy."""

import ast
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "diracgeo")

# public names that only the tests reach, each with the reason it stays
TEST_ONLY = {
    "integrability_residual": "acceptance test 2 checks the graph's "
                              "twisted integrability",
    "im_conditions_residual": "the IM conditions, for the im-conditions "
                              "check (ROADMAP item 3)",
    "cartan_closed_residual": "Cartan closedness, for the cartan-closed "
                              "check (ROADMAP item 3)",
    "gauge": "B-field gauge transformation, for the gauge-covariance check "
             "(ROADMAP item 4)",
    "apath_residual": "the A-path defect, for action algebroids "
                      "(ROADMAP item 5)",
    "relative_closedness_residual": "path-space relative closedness, for "
                                    "the path-rel-closed check (ROADMAP "
                                    "item 5)",
    "canonical_cotangent_form": "the reference for the coadjoint "
                                "groupoid's canonical symplectic form",
    "equivariance_residual": "an AMM axiom that quasi-ham does not report; "
                             "adding it would change reports",
    "left_translate": "one-vector form of left_matrix, against which the "
                      "tests check the chart translations",
    "right_translate": "one-vector form of right_matrix, against which the "
                       "tests check the chart translations",
    "embed": "the matrix representation of a chart group, against which "
             "the tests check mul",
}


def unused_imports(path):
    tree = ast.parse(open(path).read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # a Name node is every bare read, and every base of an attribute chain
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{os.path.basename(path)}:{line} {name}"
                  for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    # __init__.py imports only to re-export
    unused = [u for p in paths if not p.endswith("__init__.py")
              for u in unused_imports(p)]
    assert unused == []


def public_definitions(path):
    """The public module-level functions and classes of a module, and the
    public methods of its classes."""
    out = []
    for node in ast.parse(open(path).read(), path).body:
        if isinstance(node, ast.ClassDef):
            out += [m.name for m in node.body
                    if isinstance(m, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
    return [name for name in out if not name.startswith("_")]


def referenced_names(dirs):
    """Every name read, attribute taken or name imported in the Python
    files under dirs.  An assigned name is not a reference.

    Methods are matched by name alone, so a same-named reference elsewhere
    hides an unreached one: Form.from_components hides the test-only
    VectorField.from_components and ChartMap.from_components, and .chart
    hides geometry.chart."""
    names = set()
    for d in dirs:
        for path in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                              recursive=True):
            for node in ast.walk(ast.parse(open(path).read(), path)):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_is_reached():
    used = referenced_names(["src", "demos", "perfbench"])
    public = {name for p in glob.glob(os.path.join(SRC, "*.py"))
              for name in public_definitions(p)}
    unreached = sorted(public - used - set(TEST_ONLY))
    assert unreached == []
    # the allowlist names only defined names that nothing else reaches
    assert sorted(set(TEST_ONLY) - (public - used)) == []


def test_runner_does_not_import_scipy():
    code = "import sys, diracgeo.cli; sys.exit('scipy' in sys.modules)"
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0
