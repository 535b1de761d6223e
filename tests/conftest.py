import numpy as np
import pytest


def random_hermitian_quadric(rng, n, definite=None):
    """Non-degenerate Hermitian model with eigenvalues in +-[0.5, 2]."""
    from statdisc import Hyperquadric

    if definite == "positive":
        signs = np.ones(n)
    elif definite == "negative":
        signs = -np.ones(n)
    else:
        signs = rng.choice([-1.0, 1.0], n)
    ev = rng.uniform(0.5, 2.0, n) * signs
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(H)
    A = Q @ np.diag(ev) @ Q.conj().T
    return Hyperquadric(n=n, A=0.5 * (A + A.conj().T))


def random_disc_params(rng, n, a_max=0.6, centered=False):
    from statdisc import DiscParams

    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    while np.linalg.norm(w) < 0.3:
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = a_max * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    v = np.zeros(n, dtype=complex)
    if not centered:
        v = 0.7 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return DiscParams(y0=float(rng.normal()), v=v, w=w, a=a)


def edge_pole(r, phase):
    """a = r e^{i phase}, rounded inward so that |a| <= 1 - 1e-10 holds in floating point."""
    a = complex(r * np.exp(1j * phase))
    while abs(a) > 1.0 - 1e-10:
        a = complex(np.nextafter(a.real, 0.0), np.nextafter(a.imag, 0.0))
    return a


def lift_zero_modulus(q, params):
    """|zeta*| where zeta * h*_n of the closed-form lift vanishes.

    zeta h*_n = -b (1 - a zeta) ((zeta - conj(a)) (conj(v) A)_n
    + (conj(w) A)_n) / (1 + |a|^2), and 1/a lies outside the disc, so
    the regular lift exists exactly when |zeta*| > 1 with
    zeta* = conj(a) - (conj(w) A)_n / (conj(v) A)_n (infinite for a
    centered disc).
    """
    vA = (params.v.conj() @ q.A)[-1]
    wA = (params.w.conj() @ q.A)[-1]
    return abs(np.conj(params.a) - wA / vA) if vA != 0 else np.inf


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
