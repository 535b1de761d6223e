"""Spectral machinery on the unit circle.

Grid functions live on the equispaced nodes zeta_k = exp(2 pi i k / N)
with N a power of two and a multiple of 4.  Fourier coefficients use the
analyst's normalization c_m = (1/N) sum_k f(zeta_k) zeta_k^{-m}, so the
function zeta -> zeta has c_1 = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    LiftConstructionError,
    ResolutionError,
    WindingUndefinedError,
)

GRID_DEFAULT = 256
# a grid value at most this far from 0 leaves the winding undefined
WINDING_MIN_MODULUS = 1e-8
# a phase step this close to pi cannot be told from its opposite
WINDING_MAX_STEP = 0.9 * np.pi


def validate_grid(N):
    N = int(N)
    if N < 8 or N & (N - 1) or N % 4:
        raise InvalidInputError("grid size must be a power of two, multiple of 4, >= 8")
    return N


def circle_nodes(N):
    """zeta_k = exp(2 pi i k / N) for k = 0..N-1."""
    return np.exp(2j * np.pi * np.arange(N) / N)


def hilbert_transform(g):
    """Harmonic-conjugate operator T on real grid functions.

    Fixed by T(cos m t) = sin m t, T(sin m t) = -cos m t (m >= 1) and
    T(1) = 0; the Fourier multiplier is -i sign(m) with the mean (and
    the unpaired Nyquist mode) killed. With this convention, U = -T(g)
    makes U + i g the boundary value of a holomorphic function.
    """
    vals = np.asarray(g)
    if np.iscomplexobj(vals):
        if np.abs(vals.imag).max(initial=0.0) > 1e-13 * (1.0 + np.abs(vals).max(initial=0.0)):
            raise InvalidInputError("Hilbert transform input must be real valued")
        vals = vals.real
    N = validate_grid(vals.shape[-1])
    # real input: the multiplier is -i on the stored modes 1..N/2-1
    c = np.fft.rfft(vals, axis=-1)
    c *= -1j
    c[..., 0] = 0.0
    c[..., N // 2] = 0.0
    return np.fft.irfft(c, n=N, axis=-1)


def _negative_mass(c):
    """Relative l2 mass of the negative modes, the upper half in numpy's
    fft ordering, of Fourier coefficients (..., N); one value per
    leading index, and 0 where every coefficient is 0."""
    total = np.linalg.norm(c, axis=-1)
    neg = np.linalg.norm(c[..., c.shape[-1] // 2 :], axis=-1)
    return neg / np.where(total > 0, total, 1.0)


def holomorphic_defect(h):
    """Relative l2 mass of the negative Fourier modes of samples (..., N).

    Zero (to truncation) exactly when the samples are boundary values of
    a function holomorphic on the disc; one value per leading index.
    """
    h = np.ascontiguousarray(h, dtype=complex)  # the FFT's rounding depends on the layout
    N = validate_grid(h.shape[-1])
    if not np.all(np.isfinite(h)):
        raise InvalidInputError("non-finite boundary samples")
    out = _negative_mass(np.fft.fft(h, axis=-1) / N)
    return float(out) if out.ndim == 0 else out


def winding_number(vals):
    """Winding of a nonvanishing scalar grid function around 0.

    Sums phase increments along the grid, each taken in (-pi, pi]. A
    grid value too close to 0 raises WindingUndefinedError; a phase step
    near pi raises ResolutionError (the grid cannot certify the count).
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim != 1:
        raise InvalidInputError("winding_number expects a scalar function")
    if np.abs(vals).min() <= WINDING_MIN_MODULUS:
        raise WindingUndefinedError("function vanishes (numerically) on the grid")
    ratios = np.roll(vals, -1) / vals
    steps = np.angle(ratios)
    if np.abs(steps).max() >= WINDING_MAX_STEP:
        raise ResolutionError(
            f"phase step close to pi on N={vals.shape[0]} samples; increase the grid size"
        )
    total = steps.sum() / (2.0 * np.pi)
    wind = int(np.rint(total))
    if abs(total - wind) > 0.1:
        raise ResolutionError(f"winding sum {total} is not an integer")
    return wind


@dataclass(frozen=True)
class RegularLift:
    """Output of construct_regular_lift.

    grad holds (d rho / d z) o h as (N, n+1), lam the positive factor,
    phi = zeta * (d rho / d z_n) o h, and spec the Fourier coefficients
    (n+1, N) of zeta * h* in numpy fft ordering, where h* = lam * grad.T
    is the regular lift.
    """

    grad: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    spec: np.ndarray

    @property
    def defects(self):
        """Relative l2 mass of the negative modes of zeta * h*, per component."""
        return _negative_mass(self.spec)


def construct_regular_lift(m, h_samples):
    """Positive boundary factor lam with lam * (d rho / d z) o h a lift.

    h_samples has shape (n+1, N).  phi(zeta) = zeta * (d rho/d z_n)(h)
    must not vanish on the grid and must have winding number zero, which
    is exactly when it has a continuous logarithm psi (Lempert 1981;
    Wegert 1992).  Then U = -T(Im psi) and lam = exp(U - Re psi) > 0 make
    zeta * lam * phi_j extend holomorphically for every component j.
    """
    h = np.asarray(h_samples, dtype=complex)
    if h.ndim != 2 or h.shape[0] != m.n + 1:
        raise InvalidInputError(f"expected (n+1, N) samples, got {h.shape}")
    N = validate_grid(h.shape[1])
    return _regular_lift(m, m.grad_rho_many(h.T), circle_nodes(N))


def _regular_lift(m, grad, zeta):
    """construct_regular_lift from grad, (d rho / d z) o h as (N, n+1),
    and zeta, the N-grid's circle_nodes, for a caller that holds both."""
    phi = zeta * grad[:, m.n]
    size = np.abs(phi)
    scale = size.max()
    if scale == 0.0 or size.min() < 1e-12 * scale:
        raise LiftConstructionError("lift normalization component vanishes")
    ang = np.unwrap(np.angle(phi))
    if abs(ang[-1] + np.angle(phi[0] / phi[-1]) - ang[0]) > 1e-6:
        raise LiftConstructionError("normalization component winds around 0")
    lam = np.exp(-hilbert_transform(ang) - np.log(size))
    spec = np.fft.fft(zeta * lam * grad.T, axis=1) / zeta.size
    return RegularLift(grad=grad, lam=lam, phi=phi, spec=spec)
