"""Scenario-driven batch runner.

Scenarios are JSON files naming a fixture (builtin or inline), a suite of
named checks, and a numeric policy.  Reports are strict JSON with one
entry per check: a check returns plain data, numpy values and non-finite
floats included, and the runner writes a non-finite float as null.  An
expect map lets a scenario assert that a check FAILS (the counterexample
fixtures ship that way) while the run as a whole exits 0.

Exit codes: 0 all checks as expected, 1 check mismatch, 2 usage or parse
error, or an --out path that cannot be written.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import fixtures as fx_mod
from . import foliation as FO
from . import groupoid as GR
from . import liegroup as LG
from . import pathspace as PS
from . import realization as RZ
from .expr import ExprSyntaxError, UnknownIdentifierError
from .geometry import Form, coordinates
from .jets import DomainError
from .linear import mT, padded_orth, padded_span_gap


class ScenarioError(ValueError):
    """Malformed scenario file or inline fixture."""


DEFAULT_POLICY = {"seed": 42, "samples": 8, "tol": 1e-8,
                  "grid": [32, 64, 128], "fd_step": None}

# the ValueErrors numpy raises for a shape past its index range
TOO_LARGE = ("Maximum allowed dimension exceeded",
             "Maximum allowed size exceeded", "array is too big")


# -- fixture loading --------------------------------------------------------

def _parse_comp_key(key, degree, n):
    parts = key.split(",")
    if len(parts) != degree:
        raise ScenarioError(f"component key {key!r} needs {degree} indices")
    try:
        idx = tuple(int(c) for c in parts)
    except ValueError:
        raise ScenarioError(f"bad component key {key!r}")
    if list(idx) != sorted(set(idx)) or not 0 <= idx[0] <= idx[-1] < n:
        raise ScenarioError(f"component key {key!r} needs strictly "
                            f"increasing indices in 0..{n - 1}")
    return idx


def _components(comps, name, degree, n):
    if not isinstance(comps, dict):
        raise ScenarioError(f"inline fixture {name!r} must be an object")
    for v in comps.values():
        if not (isinstance(v, str) or _is_real(v)):
            raise ScenarioError(f"inline {name} component {v!r} must be an "
                                "expression string or a number")
    return {_parse_comp_key(k, degree, n): v for k, v in comps.items()}


def _inline_fixture(spec):
    """Inline pair-groupoid fixture: {'n': int, 'omega': {'i,j': expr},
    'phi': {'i,j,k': expr} (optional), 'box': positive number
    (optional)}."""
    if not isinstance(spec, dict):
        raise ScenarioError("inline fixture must be an object")
    n = spec.get("n")
    if not (_is_int(n) and n >= 1):
        raise ScenarioError("inline fixture needs an integer 'n' >= 1")
    if "omega" not in spec:
        raise ScenarioError("inline fixture needs 'omega' components")
    box = spec.get("box", 1.0)
    if not _is_positive(box):
        raise ScenarioError("inline fixture 'box' must be a finite "
                            "positive number")

    omega = _components(spec["omega"], "omega", 2, n)
    phi = None
    if spec.get("phi") is not None:
        phi = _components(spec["phi"], "phi", 3, n) or None
    try:
        return fx_mod.pair_fixture(n, GR.uniform(-box, box, n), omega, phi)
    except (ExprSyntaxError, UnknownIdentifierError, RecursionError) as e:
        raise ScenarioError(f"inline expression: {e}")
    except MemoryError:
        raise ScenarioError(f"inline fixture too large to build (n = {n})")


def load_fixture(ref):
    if isinstance(ref, str):
        try:
            return ref, fx_mod.load(ref)
        except KeyError as e:
            raise ScenarioError(str(e))
    if isinstance(ref, dict) and "inline" in ref:
        return "inline", _inline_fixture(ref["inline"])
    raise ScenarioError("fixture must be a builtin name or {'inline': ...}")


# -- checks -----------------------------------------------------------------

def check_structure(fx, rng, policy):
    res = fx["groupoid"].structure_residuals(rng, policy["samples"])
    return GR.worst_of(*res.values()), {"parts": res}


def check_multiplicative(fx, rng, policy):
    return GR.check_multiplicative(fx["groupoid"], fx["form"], rng,
                                   policy["samples"])


def check_rel_closed(fx, rng, policy):
    return GR.check_rel_closed(fx["groupoid"], fx["form"], rng,
                               policy["samples"])


def check_unit_identities(fx, rng, policy):
    r_eps, r_inv = GR.check_unit_identities(fx["groupoid"], fx["form"], rng,
                                            policy["samples"])
    return GR.worst_of(r_eps, r_inv), {"unit_pullback": r_eps,
                                       "inversion": r_inv}


def check_kernel_orthogonality(fx, rng, policy):
    return GR.check_kernel_orthogonality(fx["groupoid"], fx["form"], rng,
                                         policy["samples"])


def check_orbit_form(fx, rng, policy):
    if fx.get("theta") is None:
        return {"pass": True, "skipped": "fixture has no base 2-form"}
    return GR.check_orbit_form(fx["groupoid"], fx["form"], fx["theta"], rng,
                               policy["samples"])


def stream(policy, name):
    """The check's own generator, from the seed and the name bytes."""
    return np.random.default_rng([policy["seed"]] + list(name.encode()))


def _classified(fx, policy):
    """The scenario's one classify (or its error) from the classification
    stream, kept in the fixture, which each scenario loads for itself."""
    key = ("classify", policy["seed"], policy["samples"])
    if key not in fx:
        try:
            fx[key] = GR.classify(fx["groupoid"], fx["form"],
                                  stream(policy, "classification"),
                                  policy["samples"], 2 * policy["samples"])
        except Exception as e:
            fx[key] = e
    if isinstance(fx[key], Exception):
        raise fx[key]
    return fx[key]


def check_classification(fx, rng, policy):
    rep = dict(_classified(fx, policy))
    flags = rep["flags"]
    mismatches = {k: {"expected": v, "got": flags.get(k)}
                  for k, v in fx.get("expected_flags", {}).items()
                  if flags.get(k) != v}
    rep["pass"] = not mismatches and \
        GR.worst_of(0.0, *rep["residuals"].values()) <= policy["tol"]
    if mismatches:
        rep["mismatches"] = mismatches
    return rep


def check_dirac_type(fx, rng, policy):
    rep = _classified(fx, policy)
    entry = {"pass": rep["flags"]["is_dirac_type"], "flags": rep["flags"]}
    if "dirac_type" in rep["worst_points"]:
        entry["worst_point"] = rep["worst_points"]["dirac_type"]
    return entry


def check_induced_vs_group(fx, rng, policy):
    """Conjugation fixtures: the base Dirac structure induced at sampled
    units must be the group's own two-sided-translate structure.  The
    residual is the sine of the largest principal angle between the two."""
    G = fx["groupoid"]
    x = G.units.draw(rng, policy["samples"])
    span, _ = GR.induced_span(G, fx["form"], x)
    # an induced span of rank below the base dimension reads 1.0
    gap = padded_span_gap(*padded_orth(span),
                          LG.cartan_frame(fx["group"], coordinates(x)),
                          G.base.dim)
    return GR.worst_of(0.0, gap)


def check_rho_star_half_flat(fx, rng, policy):
    """Conjugation fixtures: (rho, rho*) extracted at units must be the
    Cartan-Dirac frame element (v_r - v_l, ((v_r + v_l)/2)-flat) of the
    algebra vector v carried by each Ker(ds) basis element (at a unit those
    live purely in the arrow slot)."""
    d = fx["group"].dim
    x = fx["groupoid"].units.draw(rng, policy["samples"])
    sp = GR.extract_rho_star(fx["groupoid"], fx["form"], x)
    ref = LG.cartan_frame(fx["group"], coordinates(x)) @ sp.A[:, :d]
    return GR.worst_of(0.0, np.abs(sp.A[:, d:]),
                       np.abs(sp.rho_star - mT(ref[:, d:])),
                       np.abs(sp.rho - ref[:, :d]))


def check_quasi_ham(fx, rng, policy):
    Q = RZ.rotation_quasi_ham(0.5)
    samples = RZ.annulus_samples(rng, policy["samples"])
    r1, r2, r3, r_inv = RZ.quasi_ham_check(Q, samples)
    return GR.worst_of(r1, r2, r3, r_inv), {
        "d_eta": r1, "moment": r2, "kernel_match": r3, "invariance": r_inv}


def check_quasi_ham_negative(fx, rng, policy):
    r2 = RZ.moment_residual(RZ.rotation_quasi_ham(1.0),
                            RZ.annulus_samples(rng, policy["samples"]))
    return {"residual": r2, "threshold": 0.1, "pass": bool(r2 >= 0.1)}


def check_equivalence_crosscheck(fx, rng, policy):
    Q = RZ.rotation_quasi_ham(0.5)
    samples = RZ.annulus_samples(rng, policy["samples"])
    rep = RZ.equivalence_crosscheck(Q, samples)
    worst = GR.worst_of(rep["solve_residual"], rep["generator_mismatch"])
    return worst, {k: rep[k] for k in ("dirac_map", "unique",
                                       "kernel_iso_ok")}


def check_basicness(fx, rng, policy):
    grid = policy["grid"]
    residuals = [PS.basicness_residual(path, fx["gauge"], None, probes,
                                       policy["fd_step"])
                 for path, probes in map(fx["paths"], grid)]
    order = PS.fitted_order(grid, residuals)
    return residuals[1], {"grid": list(grid), "convergence": residuals,
                          "order": order, "pass": order >= 1.8}


def check_sigma_contraction(fx, rng, policy):
    path, _ = fx["paths"](max(policy["grid"]))
    return PS.sigma_contraction_residual(path, fx["gauge"])


def check_path_boundary_identity(fx, rng, policy):
    gamma = PS.grid(max(policy["grid"])).reshape(-1, 1)
    X = np.ones_like(gamma)
    return GR.worst_of(PS.path_variation_identity_residual(["t"], gamma, X),
                       PS.path_variation_identity_residual(["x1"], gamma, X))


def check_leafwise_d_squared(fx, rng, policy):
    fol = fx["foliation"]
    f = Form.function(fol.chart, "x3*x1 + sin(x2)")
    samples = rng.uniform(-1, 1, (policy["samples"], fol.n))
    return FO.max_abs(FO.d_F(fol, FO.d_F(fol, f)), samples)


def check_transverse_derivative(fx, rng, policy):
    fol, theta = fx["foliation"], fx["leafwise"]
    samples = rng.uniform(-1, 1, (policy["samples"], fol.n))
    dn = FO.d_nu(fol, theta, theta, samples)
    return FO.max_abs(FO.classifying_rep(fol, theta) - dn, samples)


def check_twisted_shift(fx, rng, policy):
    fol = fx["foliation"]
    samples = rng.uniform(-1, 1, (policy["samples"], fol.n))
    return FO.twisted_shift_residual(fol, fx["leafwise"], fx["twist"],
                                     samples)


# One row per check, name: (check, threshold, the fixture entries it reads
# beyond the groupoid and form).  A check (fx, rng, policy) returns its
# residual, or (residual, fields), which the runner compares with the
# threshold (None: the policy's tol); a "pass" among the fields is a further
# condition.  A check that decides its own pass returns its whole entry.
TABLE = {
    "structure": (check_structure, None, ()),
    "multiplicative": (check_multiplicative, None, ()),
    "rel-closed": (check_rel_closed, None, ()),
    "unit-identities": (check_unit_identities, None, ()),
    "kernel-orthogonality": (check_kernel_orthogonality, None, ()),
    "orbit-form": (check_orbit_form, None, ()),
    "classification": (check_classification, None, ()),
    "dirac-type": (check_dirac_type, None, ()),
    "induced-dirac": (check_induced_vs_group, None, ("group",)),
    "rho-star-half-flat": (check_rho_star_half_flat, None, ("group",)),
    "quasi-ham": (check_quasi_ham, None, ()),
    "quasi-ham-negative": (check_quasi_ham_negative, None, ()),
    "equivalence-crosscheck": (check_equivalence_crosscheck, None, ()),
    "basicness": (check_basicness, 5e-4, ("paths", "gauge")),
    "sigma-contraction": (check_sigma_contraction, 1e-10, ("paths", "gauge")),
    "path-boundary-identity": (check_path_boundary_identity, 1e-6, ()),
    "leafwise-d-squared": (check_leafwise_d_squared, 1e-12, ("foliation",)),
    "transverse-derivative": (check_transverse_derivative, 1e-9,
                              ("foliation", "leafwise")),
    "twisted-shift": (check_twisted_shift, 1e-9,
                      ("foliation", "leafwise", "twist")),
}
# the runner calls each check through CHECKS, which profilers and tests wrap
CHECKS = {name: row[0] for name, row in TABLE.items()}


# -- runner -----------------------------------------------------------------

def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as e:
        raise ScenarioError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}")


def load_scenario(path):
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("id"), str):
        raise ScenarioError(f"{path}: scenario needs a string 'id'")
    if not isinstance(data.get("suite"), list) or not data["suite"] \
            or not all(isinstance(name, str) for name in data["suite"]):
        raise ScenarioError(
            f"{path}: scenario needs a non-empty 'suite' of check names")
    for key in ("policy", "expect"):
        if not isinstance(data.get(key, {}), dict):
            raise ScenarioError(f"{path}: {key!r} must be an object")
    for name in data["suite"]:
        if name not in CHECKS:
            raise ScenarioError(
                f"{path}: unknown check {name!r}; known: "
                + ", ".join(sorted(CHECKS)))
    return data


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive(v):
    """A positive number within the float range (a JSON literal such as
    1e400 reads as inf; an integer such as 10**400 has no float)."""
    return _is_real(v) and 0 < v <= sys.float_info.max


def merge_policy(scenario, args):
    policy = dict(DEFAULT_POLICY)
    unknown = sorted(set(scenario.get("policy", {})) - set(DEFAULT_POLICY))
    if unknown:
        raise ScenarioError(f"unknown policy key {unknown[0]!r}; known: "
                            + ", ".join(sorted(DEFAULT_POLICY)))
    policy.update(scenario.get("policy", {}))
    for key in ("seed", "samples", "tol", "fd_step"):
        val = getattr(args, key, None)
        if val is not None:
            policy[key] = val
    if getattr(args, "grid", None):
        policy["grid"] = args.grid
    grid = policy["grid"]
    if not (_is_int(policy["seed"]) and policy["seed"] >= 0):
        raise ScenarioError("policy seed must be a non-negative integer")
    if not (_is_int(policy["samples"]) and policy["samples"] > 0):
        raise ScenarioError("policy samples must be a positive integer")
    if not _is_positive(policy["tol"]):
        raise ScenarioError("policy tol must be a finite positive number")
    if not (policy["fd_step"] is None or _is_positive(policy["fd_step"])):
        raise ScenarioError("policy fd_step must be a finite positive "
                            "number")
    if not (isinstance(grid, list) and all(_is_int(N) and N > 1 for N in grid)
            and len(set(grid)) == len(grid) >= 2):
        raise ScenarioError(
            "policy grid must be at least two distinct integers > 1")
    return policy


def _strict_json(value):
    """A check's plain data as strict JSON data: numpy scalars and arrays
    become numbers and lists (an array in one tolist), and every
    non-finite float becomes None (null)."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        if value.dtype.kind == "f":
            value = np.where(np.isfinite(value), value.astype(object), None)
        return value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _entry(result, threshold, policy):
    """A check's entry: a whole entry as it is, else its residual against
    the threshold (None: the policy's tol), where a non-finite residual
    fails, with its fields."""
    if isinstance(result, dict):
        return result
    residual, fields = result if isinstance(result, tuple) else (result, {})
    threshold = policy["tol"] if threshold is None else threshold
    return {**fields, "residual": float(residual),
            "threshold": float(threshold),
            "pass": bool(residual <= threshold and fields.get("pass", True))}


def run_scenario(scenario, args):
    policy = merge_policy(scenario, args)
    fixture, fx = load_fixture(scenario.get("fixture", "pair-groupoid-r2"))
    for name in scenario["suite"]:
        for key in TABLE[name][2]:
            if key not in fx:
                raise ScenarioError(f"check {name!r} reads {key!r}, which "
                                    f"fixture {fixture!r} does not carry")
    expect = dict(scenario.get("expect", {}))
    if args.expect_file:
        given = _read_json(args.expect_file)
        if not isinstance(given, dict) or \
                not isinstance(given.get(scenario["id"], {}), dict):
            raise ScenarioError(f"{args.expect_file}: expectations must be "
                                "an object per scenario id")
        expect.update(given.get(scenario["id"], {}))
    for name, expected in expect.items():
        if name not in CHECKS:
            raise ScenarioError(f"expectation for unknown check {name!r}")
        if not isinstance(expected, bool):
            raise ScenarioError(f"expectation for {name!r} must be true or "
                                f"false, got {expected!r}")
    checks = {}
    ok = True
    for name in sorted(set(scenario["suite"])):
        rng = stream(policy, name)
        try:
            # a non-finite value fails its check in the report, so numpy's
            # warnings about it would only repeat that on stderr
            with np.errstate(all="ignore"):
                entry = _entry(CHECKS[name](fx, rng, policy), TABLE[name][1],
                               policy)
        except (GR.NonFiniteFormError, DomainError, RecursionError) as e:
            entry = {"pass": False, "error": str(e)}
        except OverflowError as e:
            entry = {"pass": False, "error": f"floating-point overflow: {e}"}
        except MemoryError as e:
            entry = {"pass": False, "error": f"out of memory: {e}"}
        except GR.RankInstabilityError as e:
            entry = {"pass": False, "indeterminate": str(e)}
        except ValueError as e:
            if not str(e).startswith(TOO_LARGE):
                raise
            entry = {"pass": False, "error": f"cannot allocate: {e}"}
        entry = _strict_json(entry)
        expected = expect.get(name, True)
        entry["expected"] = expected
        entry["as_expected"] = bool(entry["pass"]) == expected
        ok = ok and entry["as_expected"]
        checks[name] = entry
    report = {
        "schema": "v1",
        "scenario": scenario["id"],
        "seed": policy["seed"],
        "policy": {k: policy[k] for k in sorted(policy)},
        "checks": checks,
        "versions": {"diracgeo": __version__, "numpy": np.__version__},
        "ok": ok,
    }
    return report, ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diracgeo",
        description="Run scenario check-suites and emit JSON reports.")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run scenario files")
    runp.add_argument("scenarios", nargs="+")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--samples", type=int, default=None)
    runp.add_argument("--tol", type=float, default=None)
    runp.add_argument("--grid", type=lambda s: [int(c) for c in s.split(",")],
                      default=None)
    runp.add_argument("--fd-step", type=float, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--expect-file", default=None)
    sub.add_parser("list-fixtures", help="list builtin fixtures")
    sub.add_parser("list-checks", help="list known checks")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "list-fixtures":
        print("\n".join(sorted(fx_mod.FIXTURES)))
        return 0
    if args.command == "list-checks":
        print("\n".join(sorted(CHECKS)))
        return 0
    if args.command != "run":
        parser.print_usage()
        return 2

    # a target that cannot be a file is refused before any check runs
    if args.out and (os.path.isdir(args.out) or
                     not os.path.isdir(os.path.dirname(args.out) or ".")):
        print(f"error: cannot write {args.out}: not a file in an existing "
              "directory", file=sys.stderr)
        return 2
    reports = []
    all_ok = True
    start = time.time()
    try:
        for path in args.scenarios:
            scenario = load_scenario(path)
            report, ok = run_scenario(scenario, args)
            reports.append(report)
            all_ok = all_ok and ok
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = {"schema": "v1", "reports": reports,
               "wall_time": round(time.time() - start, 3)}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
