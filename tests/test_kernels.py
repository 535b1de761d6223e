import numpy as np
import pytest

from statdisc import PerturbedHypersurface, _kernels
from statdisc.quadric import Frame, z_to_real_coords

from conftest import random_hermitian_quadric


def naive_eval(x, powers, coeffs):
    """sum_t c_t prod_d x_d^p_td, one point and one term at a time."""
    out = np.zeros(x.shape[0])
    for p in range(x.shape[0]):
        for t in range(powers.shape[0]):
            m = coeffs[t]
            for d in range(x.shape[1]):
                for _ in range(powers[t, d]):
                    m *= x[p, d]
            out[p] += m
    return out


def naive_grad(x, powers, coeffs):
    """Term by term: d/dx_d (c x^p) = c p_d x^(p - e_d)."""
    P, D = x.shape
    out = np.zeros((P, D))
    for p in range(P):
        for t in range(powers.shape[0]):
            for d in range(D):
                if powers[t, d] == 0:
                    continue
                m = coeffs[t] * powers[t, d]
                for dd in range(D):
                    for _ in range(powers[t, dd] - (dd == d)):
                        m *= x[p, dd]
                out[p, d] += m
    return out


def random_poly(rng, terms, nvars, max_degree=6):
    """`terms` random multi-indices of total degree <= max_degree."""
    powers = np.zeros((terms, nvars), dtype=np.int64)
    for t in range(terms):
        for _ in range(rng.integers(0, max_degree + 1)):
            powers[t, rng.integers(nvars)] += 1
    return powers, rng.normal(size=terms)


@pytest.mark.parametrize("terms,nvars", [(0, 4), (1, 4), (12, 6), (40, 8)])
def test_matches_naive_reference(rng, terms, nvars):
    # normal samples put negative bases under every odd power
    x = rng.normal(size=(32, nvars))
    powers, coeffs = random_poly(rng, terms, nvars)
    # the same sums over |x| and |c| bound the rounding error of each entry
    ax, ac = np.abs(x), np.abs(coeffs)
    scale = 1.0 + naive_eval(ax, powers, ac)
    got = _kernels.poly_eval(x, powers, coeffs)
    assert np.all(np.abs(got - naive_eval(x, powers, coeffs)) <= 1e-12 * scale)
    scale = 1.0 + naive_grad(ax, powers, ac)
    got = _kernels.poly_grad(x, powers, coeffs)
    assert np.all(np.abs(got - naive_grad(x, powers, coeffs)) <= 1e-12 * scale)
    # every first and second derivative, stacked into one evaluation
    eye = np.eye(nvars, dtype=np.int64)
    betas = [eye[i] for i in range(nvars)]
    betas += [eye[i] + eye[j] for i in range(nvars) for j in range(i, nvars)]
    got = _kernels.poly_eval(x, *_kernels.stack_derivatives(powers, coeffs, betas))
    assert got.shape == (32, len(betas))
    for k, beta in enumerate(betas):
        ref = naive_eval(x, *_kernels.derive_poly(powers, coeffs, beta))
        scale = 1.0 + naive_eval(ax, *_kernels.derive_poly(powers, ac, beta))
        assert np.all(np.abs(got[:, k] - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("framed", [False, True], ids=["bare", "framed"])
def test_rho_and_grad_match_naive_reference(rng, framed):
    # rho and d rho / d z from one sweep of s's (0, 1) derivative stack
    # against the term-by-term sums, at Phi^-1 of the points in a frame
    q = random_hermitian_quadric(rng, 2)
    powers, coeffs = random_poly(rng, 12, 6)
    m = PerturbedHypersurface(base=q, epsilon=0.3, terms=dict(zip(map(tuple, powers), coeffs)))
    powers, coeffs = m._powers, m._coeffs  # the terms as the surface keeps them
    L, weight = np.eye(3), m.epsilon
    if framed:
        frame = Frame.heisenberg(q, rng.normal(size=2) + 0.5j, 0.7).then(Frame.dilation(2, 1.6))
        m, L, weight = m.in_frame(frame), frame.L, weight * frame.c2
    z = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    x = z_to_real_coords(m.frame.inverse(z) if framed else z)
    rho, grad = m.rho_and_grad_many(z)
    ax, ac = np.abs(x), np.abs(coeffs)
    ref = q.eval_r_many(z) + weight * naive_eval(x, powers, coeffs)
    scale = np.abs(q.eval_r_many(z)) + abs(weight) * (1.0 + naive_eval(ax, powers, ac))
    assert np.all(np.abs(rho - ref) <= 1e-12 * scale)
    g, ag = naive_grad(x, powers, coeffs), 1.0 + naive_grad(ax, powers, ac)
    ref = q.grad_r_many(z) + weight * 0.5 * (g[:, 0::2] - 1j * g[:, 1::2]) @ L
    scale = np.abs(q.grad_r_many(z)) + abs(weight) * 0.5 * (ag[:, 0::2] + ag[:, 1::2]) @ np.abs(L)
    assert np.all(np.abs(grad - ref) <= 1e-12 * scale)


def test_gradient_matches_finite_differences(rng):
    x = rng.normal(size=(8, 4))
    powers = np.array([[2, 1, 0, 0], [0, 0, 3, 1], [1, 1, 1, 1]], dtype=np.int64)
    coeffs = np.array([0.7, -1.2, 0.4])
    g = _kernels.poly_grad(x, powers, coeffs)
    h = 1e-6
    for d in range(4):
        xp = x.copy()
        xp[:, d] += h
        xm = x.copy()
        xm[:, d] -= h
        fd = (_kernels.poly_eval(xp, powers, coeffs) - _kernels.poly_eval(xm, powers, coeffs)) / (
            2 * h
        )
        assert np.abs(g[:, d] - fd).max() < 1e-7


def test_empty_polynomial():
    x = np.zeros((3, 4))
    powers = np.zeros((0, 4), dtype=np.int64)
    coeffs = np.zeros(0)
    assert np.all(_kernels.poly_eval(x, powers, coeffs) == 0.0)
    assert np.all(_kernels.poly_grad(x, powers, coeffs) == 0.0)
    got = _kernels.poly_eval(x, powers, np.zeros((0, 5)))
    assert got.shape == (3, 5) and np.all(got == 0.0)
    p, c = _kernels.stack_derivatives(powers, coeffs, np.eye(4, dtype=np.int64))
    assert p.shape == (0, 4) and c.shape == (0, 4)


def test_constant_polynomial():
    x = -np.ones((3, 4))
    powers = np.zeros((1, 4), dtype=np.int64)
    assert np.all(_kernels.poly_eval(x, powers, np.array([2.5])) == 2.5)
    assert np.all(_kernels.poly_eval(x, powers, np.array([[2.5, -1.0]])) == [2.5, -1.0])
    assert np.all(_kernels.poly_grad(x, powers, np.array([2.5])) == 0.0)
