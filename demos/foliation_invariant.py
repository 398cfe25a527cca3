"""The transverse invariant of a leafwise presymplectic foliation.

On R^3 foliated by horizontal planes with the leafwise form x3 dx1^dx2,
the curvature of the obvious splitting agrees with the transverse
derivative of the form, and the conormal pair groupoid integrates the
structure F + conormal(F).
"""

import numpy as np

from diracgeo import foliation as fo
from diracgeo import groupoid as gr
from diracgeo.geometry import Form


def main():
    rng = np.random.default_rng(1)
    fol = fo.CoordFoliation(3, 2)
    pts = [list(v) for v in rng.uniform(-1, 1, (6, 3))]

    theta = Form.from_components(fol.chart, 2, {(0, 1): "x3"})
    ext = Form.from_components(fol.chart, 2, {(0, 1): "x3"})

    dn = fo.d_nu(fol, theta, ext, pts)
    u = fo.classifying_rep(fol, ext)
    print("transverse derivative component:", dn.at(pts[0])[0, 1, 2])
    print("splitting curvature matches    :", fo.max_abs(u - dn, pts) < 1e-12)

    phi = Form.from_components(fol.chart, 3, {(0, 1, 2): "sin(x3) + x1"})
    print("twisted shift residual         :",
          fo.twisted_shift_residual(fol, ext, phi, pts))

    G, F = fo.foliation_groupoid(3, 2)
    rep = gr.classify(G, F, rng, 6, 12)
    print("conormal groupoid flags        :", rep["flags"])
    L = gr.induced_dirac(G, F, list(rng.uniform(-1, 1, 3)))
    print("induced = F + conormal(F)      :",
          L == fo.leaf_conormal_dirac(3, 2))


if __name__ == "__main__":
    main()
