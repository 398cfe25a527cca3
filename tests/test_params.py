"""Every parameter a package function takes is read by its body."""

import ast
import glob
import os

from diracgeo import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "diracgeo")


def _only_raises(fn):
    """A body that is a raise, after an optional docstring: a placeholder
    that a subclass overrides."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def unused_params(path, skip=()):
    tree = ast.parse(open(path).read(), path)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or fn.name in skip or _only_raises(fn):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs \
            + [p for p in (a.vararg, a.kwarg) if p is not None]
        # a read in a nested function or lambda is a read of the closure
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        out += [f"{os.path.basename(path)}:{fn.lineno} {fn.name}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def test_no_unused_parameters():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    # the checks share the runner's (fx, rng, policy) protocol
    checks = {f.__name__ for f in cli.CHECKS.values()}
    unused = [u for p in paths for u in unused_params(
        p, checks if p.endswith("cli.py") else ())]
    assert unused == []
