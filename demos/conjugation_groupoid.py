"""The conjugation groupoid of SO(3), `adjoint_groupoid` with `amm` true,
and its multiplicative 2-form.

Runs the multiplicativity and relative-closedness checks, classifies the
form, and verifies that the structure induced on the base at units is the
group's own two-sided-translate Dirac structure.
"""

import numpy as np

from diracgeo import groupoid as gr
from diracgeo import liegroup as lg


def main():
    rng = np.random.default_rng(42)
    Gp = lg.so3()
    G, F = lg.adjoint_groupoid(Gp, True)

    print("structure residuals:", G.structure_residuals(rng, 8))
    print("multiplicativity   :", gr.check_multiplicative(G, F, rng, 8))
    print("rel. closedness    :", gr.check_rel_closed(G, F, rng, 8))
    r_eps, r_inv = gr.check_unit_identities(G, F, rng, 8)
    print("unit / inversion   :", r_eps, r_inv)

    rep = gr.classify(G, F, rng, n_units=8, n_arrows=16)
    print("flags:", rep["flags"])

    x = [0.2, -0.3, 0.4]
    sp = gr.extract_rho_star(G, F, x)
    print("rho at a unit has rank", np.linalg.matrix_rank(sp.rho, tol=1e-9))

    L1 = gr.induced_dirac(G, F, x)
    L2 = lg.cartan_dirac(Gp, x)
    print("induced structure equals the group structure:", L1 == L2)


if __name__ == "__main__":
    main()
