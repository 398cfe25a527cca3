"""Every name a package module imports is read somewhere in that module,
every public function, class and method is reached from the package, the
demos or the benchmark, the names that only the tests or only the
benchmark reach are listed, and the runner needs no more than numpy."""

import ast
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "diracgeo")

# public names that only the tests reach, each with the reason it stays
TEST_ONLY = {
    "courant.integrability_residual": "acceptance test 2 checks the "
                                      "graph's twisted integrability",
    "courant.im_conditions_residual": "the IM conditions, for the "
                                      "im-conditions check (ROADMAP item 3)",
    "courant.cartan_closed_residual": "Cartan closedness, for the "
                                      "cartan-closed check (ROADMAP item 3)",
    "groupoid.gauge": "B-field gauge transformation, for the "
                      "gauge-covariance check (ROADMAP item 4)",
    "DiscretizedAPath.apath_residual": "the A-path defect, for action "
                                       "algebroids (ROADMAP item 5)",
    "pathspace.relative_closedness_residual": "path-space relative "
                                              "closedness, for the "
                                              "path-rel-closed check "
                                              "(ROADMAP item 5)",
    "realization.equivariance_residual": "an AMM axiom that quasi-ham does "
                                         "not report; adding it would "
                                         "change reports",
}

# public names that only the benchmark reaches, each with the reason it
# stays: they go once it stops calling them
BENCH_ONLY = {
    f"MatrixGroup.{name}": "flipped_amm_form's one-vector AMM form, until "
                           "it is rebuilt from the chart matrices "
                           "(ROADMAP item 1)"
    for name in ("lam", "lam_bar", "Ad", "inner")}


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


MODULES = {os.path.basename(p)[:-3]
           for p in glob.glob(os.path.join(SRC, "*.py"))}


def _parse(path):
    return ast.parse(open(path).read(), path)


def public_definitions(path):
    """The public module-level functions and classes of a module, as
    'module.name', and the public methods of its classes, as
    'Class.name'."""
    module = os.path.basename(path)[:-3]
    out = []
    for node in _parse(path).body:
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
    return out


def referenced_names(dirs):
    """The definitions that the Python files under dirs reach, as
    'owner.name'.  A module's name is reached by an import from the
    module, by a read in the module itself, or as an attribute of the
    module; a method is reached as an attribute of its class, so
    Form.from_components does not reach VectorField.from_components.  An
    assigned name is not a reference.

    The class of any other value is not known.  An attribute of it
    reaches the methods of that name that its own file defines, so
    perfbench's M.Ad reaches its own MatrixModel.Ad and not
    MatrixGroup.Ad; where its file defines none, it reaches every
    method of that name (but no module function: fol.chart would not
    reach a module function named chart)."""
    classes = {node.name for p in glob.glob(os.path.join(SRC, "*.py"))
               for node in _parse(p).body if isinstance(node, ast.ClassDef)}
    names = set()
    for d in dirs:
        for path in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                              recursive=True):
            tree = _parse(path)
            own = os.path.basename(path)[:-3] \
                if os.path.dirname(path) == SRC else None
            defined = {}   # the classes of this file that define a method
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    for m in node.body:
                        if isinstance(m, ast.FunctionDef):
                            defined.setdefault(m.name, []).append(node.name)
            modules = {}   # the module each imported module name binds
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                source = (getattr(node, "module", None) or "").split(".")[-1]
                for alias in node.names:
                    if source in MODULES:
                        names.add(f"{source}.{alias.name}")
                    else:
                        modules[alias.asname or alias.name] = \
                            alias.name.split(".")[-1]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and own \
                        and not isinstance(node.ctx, ast.Store):
                    names.add(f"{own}.{node.id}")
                elif isinstance(node, ast.Attribute):
                    owner = node.value
                    key = modules.get(owner.id, owner.id) \
                        if isinstance(owner, ast.Name) \
                        else getattr(owner, "attr", None)
                    owners = [key] if key in MODULES | classes \
                        else defined.get(node.attr, classes)
                    names.update(f"{c}.{node.attr}" for c in owners)
    return names


def test_every_public_name_is_reached():
    used = referenced_names(["src", "demos", "perfbench"])
    public = {name for p in glob.glob(os.path.join(SRC, "*.py"))
              for name in public_definitions(p)}
    unreached = sorted(public - used - set(TEST_ONLY))
    assert unreached == []
    # the allowlist names only defined names that nothing else reaches
    assert sorted(set(TEST_ONLY) - (public - used)) == []


def test_bench_only_names_are_listed():
    public = {name for p in glob.glob(os.path.join(SRC, "*.py"))
              for name in public_definitions(p)}
    bench = public & referenced_names(["perfbench"])
    assert sorted(bench - referenced_names(["src", "demos"])) \
        == sorted(BENCH_ONLY)


def test_runner_does_not_import_scipy():
    code = "import sys, diracgeo.cli; sys.exit('scipy' in sys.modules)"
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0
