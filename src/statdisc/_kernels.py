"""Real polynomials in array form and their evaluation on grids.

A polynomial in D real variables is held as ``(powers, coeffs)``: powers
(T, D) int64 exponents and coeffs (T,) float64, one row per term.  These
kernels sit in the innermost loop of the Newton solver (every residual
evaluation sweeps the perturbation polynomial and its gradient over the
whole circle grid).

``poly_eval`` builds the integer power table x_d^0..x_d^deg by repeated
multiplication once per call and forms each monomial by gathering rows
of it, so no float ``pow`` runs.  With coeffs (T, K) one call evaluates
K polynomials over one shared set of monomials.  ``derive_poly`` is the
one differentiation rule for the array form; ``stack_derivatives`` lays
several derivatives of one polynomial side by side in that (T, K) form,
so a gradient or a Hessian is a single ``poly_eval``, and a value with
its gradient one call over their stacked monomials.
"""

import numpy as np


def poly_eval(x, powers, coeffs):
    """Evaluate sum_t c_t * prod_d x_d^p_td at each row of x.

    x: (P, D) float64, powers: (T, D) int64, coeffs: (T,) or (T, K)
    float64.  Returns (P,) or (P, K): column k uses coeffs[:, k].  coeffs
    may also be a list of such arrays whose row counts split powers into
    consecutive blocks; then the values come back as a list, one per
    block, each as poly_eval over that block alone gives it.
    """
    xt = x.T
    D, P = xt.shape
    table = np.empty((D, int(powers.max(initial=0)) + 1, P))
    table[:, 0] = 1.0
    for k in range(1, table.shape[1]):
        np.multiply(table[:, k - 1], xt, out=table[:, k])
    mono = table[0, powers[:, 0]]  # (T, P); fancy indexing copies
    for d in range(1, D):
        mono *= table[d, powers[:, d]]
    if not isinstance(coeffs, list):
        return mono.T @ coeffs
    out, start = [], 0
    for c in coeffs:
        out.append(mono[start : start + c.shape[0]].T @ c)
        start += c.shape[0]
    return out


def poly_grad(x, powers, coeffs):
    """All partial derivatives of the polynomial at each row of x: (P, D)."""
    return poly_eval(x, *stack_derivatives(powers, coeffs, np.eye(x.shape[1], dtype=np.int64)))


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


def stack_derivatives(powers, coeffs, betas):
    """The derivatives d^beta for each row of betas (K, D), over shared monomials.

    Returns (powers', C): powers' (T', D) the distinct monomials of all K
    derivatives and C (T', K), so poly_eval(x, powers', C)[:, k] is
    d^betas[k] of the polynomial at x.
    """
    parts = [derive_poly(powers, coeffs, beta) for beta in np.asarray(betas, dtype=np.int64)]
    rows = np.concatenate([powers[:0]] + [p for p, _ in parts])
    values = np.concatenate([coeffs[:0]] + [c for _, c in parts])
    column = np.repeat(np.arange(len(parts)), [c.size for _, c in parts])
    union, row = np.unique(rows, axis=0, return_inverse=True)
    stacked = np.zeros((union.shape[0], len(parts)))
    np.add.at(stacked, (row.reshape(-1), column), values)  # a monomial may repeat
    return union, stacked
