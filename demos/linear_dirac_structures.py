"""Linear Dirac structures: graphs and images.

Builds the graph of a random skew form, pushes it through a linear
isomorphism and pulls it back again, then pulls the cotangent structure
back along a collapse, which mixes tangent and cotangent directions.
"""

import numpy as np

from diracgeo import linear


def main():
    rng = np.random.default_rng(0)
    n = 3

    theta = rng.standard_normal((n, n))
    theta = theta - theta.T
    L = linear.from_form(theta)
    print("graph of a random skew form, dim =", L.dim)

    psi = rng.standard_normal((n, n)) + 2 * np.eye(n)
    pushed = linear.push_forward(psi, L)
    inv = np.linalg.inv(psi)
    print("push-forward equals graph of psi^-T theta psi^-1:",
          pushed == linear.from_form(inv.T @ theta @ inv))

    back = linear.pull_back(psi, pushed)
    print("round trip recovers L:", back == L)

    # a degenerate example: the projection to the first coordinate
    f = np.zeros((n, n))
    f[0, 0] = 1.0
    TstarM = linear.LinearDirac.from_span(
        np.vstack([np.zeros((n, n)), np.eye(n)]))
    # f*(T*M) = {(X, f^T xi) : f X = 0} = Ker f + Im f^T
    mixed = linear.LinearDirac.from_span(np.vstack([np.eye(n) - f, f]))
    print("pull-back along a collapse is Ker f + Im f^T:",
          linear.pull_back(f, TstarM) == mixed)


if __name__ == "__main__":
    main()
