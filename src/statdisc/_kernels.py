"""Real polynomials in array form and their evaluation on grids.

A polynomial in D real variables is held as ``(powers, coeffs)``: powers
(T, D) int64 exponents and coeffs (T,) float64, one row per term.  These
kernels sit in the innermost loop of the Newton solver (every residual
evaluation sweeps the perturbation polynomial and its gradient over the
whole circle grid).  ``derive_poly`` is the one differentiation rule for
the array form; the gradient and the Hessian of the perturbation are
built from it and evaluated with ``poly_eval``.
"""

import numpy as np


def poly_eval(x, powers, coeffs):
    """Evaluate sum_t c_t * prod_d x_d^p_td at each row of x.

    x: (P, D) float64, powers: (T, D) int64, coeffs: (T,) float64.
    """
    mono = np.prod(x[:, None, :] ** powers[None, :, :], axis=2)
    return mono @ coeffs


def poly_grad(x, powers, coeffs):
    """All partial derivatives of the polynomial at each row of x: (P, D)."""
    P, D = x.shape
    out = np.zeros((P, D))
    for d, unit in enumerate(np.eye(D, dtype=np.int64)):
        p, c = derive_poly(powers, coeffs, unit)
        if c.size:
            out[:, d] = poly_eval(x, p, c)
    return out


def derive_poly(powers, coeffs, beta):
    """Coefficient-wise multi-derivative d^beta of a polynomial in array form.

    Terms that the derivative kills are dropped, so a zero result has T = 0.
    """
    keep = np.all(powers >= beta[None, :], axis=1)
    if not keep.any():
        return powers[:0], coeffs[:0]
    p, c = powers[keep], coeffs[keep]  # boolean indexing copies
    for j, bj in enumerate(beta):
        for _ in range(int(bj)):
            c *= p[:, j]
            p[:, j] -= 1
    return p, c
