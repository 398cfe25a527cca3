"""Path-space reconstruction: gauge directions sit in the kernel.

Discretizes an algebroid path over the plane with its area form, builds a
gauge direction from a time-dependent section, and tabulates the residual
of the reconstruction 2-form against it over a refining grid.  The decay
is second order in the grid size.
"""

from diracgeo import fixtures
from diracgeo import pathspace as ps
from diracgeo.courant import graph_of_form


def main():
    pres = graph_of_form(fixtures.load("pair-groupoid-r2")["theta"])
    eta = ps.GaugeParameter(["1.0 + x2", "t - x1*x1"])

    print(f"{'N':>5}  {'basicness':>12}  {'sigma-contraction':>18}")
    grids = [32, 64, 128]
    residuals = []
    for N in grids:
        path = ps.sampled_path(pres, ["t", "t*t*(1.0-t)"],
                               ["1.0", "2.0*t - 3.0*t*t"], N)
        probes = [ps.sampled_tangent(path, ["sin(t)", "t*t"],
                                     ["cos(t)", "2.0*t"]),
                  ps.sampled_tangent(path, ["t", "1.0 - t"],
                                     ["1.0", "-1.0"])]
        r = ps.basicness_residual(path, eta, None, probes)
        rs = ps.sigma_contraction_residual(path, eta)
        residuals.append(r)
        print(f"{N:>5}  {r:>12.3e}  {rs:>18.3e}")
    print("fitted order:", round(ps.fitted_order(grids, residuals), 3))


if __name__ == "__main__":
    main()
