"""Every name a package module imports is read somewhere in that module,
and the runner needs no more than numpy."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "diracgeo")


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


def test_runner_does_not_import_scipy():
    code = "import sys, diracgeo.cli; sys.exit('scipy' in sys.modules)"
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0
