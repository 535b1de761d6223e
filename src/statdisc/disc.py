"""Closed-form stationary discs glued to the unperturbed hyperquadric.

A disc is parametrized by (y0, v, w, a) with |a| < 1, w != 0:

    h(zeta) = ( vAv + 2 vAw zeta/(1-a zeta)
                + wAw/(1-|a|^2) (1+a zeta)/(1-a zeta) + i y0,
                v + w zeta/(1-a zeta) )

where vAw abbreviates conj(v)^T A w.  Its regular lifts are the real
multiples of

    h*(zeta) = (b/zeta) [ p(zeta) (1/2, -conj(v)^T A)
                          - q(zeta) (0, conj(w)^T A) ],

with p(zeta) = (zeta - conj(a))(1 - a zeta)/(1+|a|^2) and
q(zeta) = p(zeta)/(zeta - conj(a)); zeta h* extends holomorphically.
"""

from dataclasses import dataclass

import numpy as np

from .boundary_analysis import (
    GRID_DEFAULT,
    circle_nodes,
    construct_regular_lift,
    validate_grid,
)
from .errors import (
    DegenerateDiscError,
    InvalidInputError,
    InvalidParamsError,
    NormalizationError,
    NotReachableError,
    PoleError,
)
from .quadric import Hyperquadric, PerturbedHypersurface, satisfies_condition_star

A_INTERIOR_MARGIN = 1e-10
GLUING_TOL = 1e-10
# multiple of the closed form's rounding floor that the gluing check admits
# (exact discs measured up to 3.2 times it, n <= 6, |a| <= 1 - 1e-10)
GLUING_ROUNDING = 8.0


@dataclass(frozen=True)
class DiscParams:
    """(y0, v, w, a) with |a| <= 1 - 1e-10 and w != 0."""

    y0: float
    v: np.ndarray
    w: np.ndarray
    a: complex

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=complex))
        w = np.atleast_1d(np.asarray(self.w, dtype=complex))
        a = complex(self.a)
        y0 = float(self.y0)
        if v.ndim != 1 or w.shape != v.shape:
            raise InvalidParamsError("v and w must be vectors of equal length")
        vals = np.concatenate([v, w, [a, y0]])
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise InvalidParamsError("non-finite disc parameters")
        if np.linalg.norm(w) == 0.0:
            raise InvalidParamsError("w must be nonzero")
        if abs(a) > 1.0 - A_INTERIOR_MARGIN:
            raise InvalidParamsError(f"|a| = {abs(a)} too close to the circle")
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y0", y0)

    @property
    def n(self):
        return self.v.shape[0]

    def norm(self):
        return float(
            np.sqrt(
                self.y0**2
                + np.linalg.norm(self.v) ** 2
                + np.linalg.norm(self.w) ** 2
                + abs(self.a) ** 2
            )
        )


@dataclass(frozen=True)
class LiftParams:
    """Disc parameters plus the real lift scale b != 0."""

    disc: DiscParams
    b: float = 1.0

    def __post_init__(self):
        if self.b == 0.0 or not np.isfinite(self.b):
            raise InvalidParamsError("lift scale b must be a nonzero real")
        object.__setattr__(self, "b", float(self.b))


class Disc:
    """A stationary disc of a hyperquadric, with closed-form evaluation."""

    def __init__(self, quadric, params, check=True):
        if params.n != quadric.n:
            raise InvalidParamsError("parameter dimension does not match the quadric")
        self.quadric = quadric
        self.params = params
        A = quadric.A
        v, w, a = params.v, params.w, params.a
        self._vAv = float(np.real(v.conj() @ A @ v))
        self._vAw = complex(v.conj() @ A @ w)
        self._wAw = float(np.real(w.conj() @ A @ w))
        self._x = self._wAw / (1.0 - abs(a) ** 2)
        if check:
            nodes = circle_nodes(256)
            h = self.at(nodes)
            res = float(np.abs(quadric.eval_r_many(h)).max())
            bound = GLUING_TOL * (1.0 + params.norm() ** 2)
            if res > bound:  # near the circle the rounding floor is the larger term
                bound += GLUING_ROUNDING * self._rounding_floor(nodes, h)
                if res > bound:
                    raise InvalidParamsError(f"gluing residual {res} exceeds {bound}")

    def _rounding_floor(self, nodes, h):
        """Rounding error of r on the samples h = self.at(nodes).

        Re h0 is the real part of x (1 + a zeta)/(1 - a zeta), that is
        x (1 - |a|^2)/|1 - a zeta|^2, so it carries an error of about
        u |x|/|1 - a zeta|^2, a relative u/(1 - |a|^2); z_a^* A z_a adds
        u |A| |z_a|^2.
        """
        u = np.finfo(float).eps / 2
        return u * (
            abs(self._x) / float(np.min(np.abs(1.0 - self.params.a * nodes))) ** 2
            + np.linalg.norm(self.quadric.A) * float(np.max(np.sum(np.abs(h[:, 1:]) ** 2, axis=1)))
        )

    def at(self, zeta):
        """h(zeta) on the closed disc; shape (..., n+1)."""
        zeta = np.asarray(zeta, dtype=complex)
        a = self.params.a
        den = 1.0 - a * zeta
        if np.abs(den).min(initial=np.inf) < 1e-12:
            raise PoleError("evaluation at a pole of the parametrization")
        frac = zeta / den
        h0 = (
            self._vAv
            + 2.0 * self._vAw * frac
            + self._x * (1.0 + a * zeta) / den
            + 1j * self.params.y0
        )
        out = np.empty(zeta.shape + (self.params.n + 1,), dtype=complex)
        out[..., 0] = h0
        out[..., 1:] = self.params.v + frac[..., None] * self.params.w
        return out

    def boundary(self, N=None):
        """Samples on the circle grid, shape (n+1, N)."""
        N = validate_grid(N or GRID_DEFAULT)
        return self.at(circle_nodes(N)).T

    def center(self):
        return self.at(np.array(0.0 + 0.0j))

    def velocity(self):
        """h'(0) = (2 vAw + 2 a wAw/(1-|a|^2), w)."""
        out = np.empty(self.params.n + 1, dtype=complex)
        out[0] = 2.0 * self._vAw + 2.0 * self.params.a * self._x
        out[1:] = self.params.w
        return out

    def coefficients(self, M):
        """Taylor coefficients of h up to degree M, shape (n+1, M+1)."""
        a = self.params.a
        c = np.zeros((self.params.n + 1, M + 1), dtype=complex)
        c[0, 0] = self._vAv + self._x + 1j * self.params.y0
        c[1:, 0] = self.params.v
        apow = a ** np.arange(M)
        c[0, 1:] = 2.0 * self._vAw * apow + 2.0 * self._x * a * apow
        c[1:, 1:] = self.params.w[:, None] * apow[None, :]
        return c


def make_disc(q, p):
    """Construct the stationary disc of q with parameters p."""
    return Disc(q, p)


def invert_disc(q, h_samples):
    """Recover (y0, v, w, a) from boundary samples of a stationary disc.

    h0(0), h_a(0) and h'_a(0) come from the grid Cauchy integrals (mean
    and first Fourier coefficient); a is read off the boundary distance
    ratio theta(zeta) at zeta = 1 and zeta = i, which for a true disc
    equals Re(a zeta).
    """
    h = np.asarray(h_samples, dtype=complex)
    if h.ndim != 2 or h.shape[0] != q.n + 1:
        raise InvalidInputError(f"expected (n+1, N) samples, got {h.shape}")
    N = validate_grid(h.shape[1])
    coeffs = np.fft.fft(h, axis=1) / N
    y0 = float(coeffs[0, 0].imag)
    v = coeffs[1:, 0].copy()
    w = coeffs[1:, 1].copy()
    wn = np.linalg.norm(w)
    if wn < 1e-8:
        raise DegenerateDiscError("first Fourier coefficient below 1e-8")

    def theta(idx, idx_opp):
        d_plus = np.linalg.norm(h[1:, idx] - v)
        d_minus = np.linalg.norm(h[1:, idx_opp] - v)
        if min(d_plus, d_minus) < 1e-12:
            raise DegenerateDiscError("boundary meets the center value at a probe node")
        return 0.25 * wn**2 * (1.0 / d_minus**2 - 1.0 / d_plus**2)

    t1 = theta(0, N // 2)  # zeta = 1, -1
    ti = theta(N // 4, 3 * N // 4)  # zeta = i, -i
    a = complex(t1, -ti)
    return DiscParams(y0=y0, v=v, w=w, a=a)


class ClosedFormLift:
    """Evaluator for the regular lift h* of a closed-form disc on Delta \\ {0}."""

    def __init__(self, quadric, lift_params):
        self.quadric = quadric
        self.lift_params = lift_params
        self.disc = Disc(quadric, lift_params.disc)
        d = lift_params.disc
        self._vA = d.v.conj() @ quadric.A
        self._wA = d.w.conj() @ quadric.A

    def at(self, zeta):
        """h*(zeta) on the punctured disc and the boundary; (..., n+1)."""
        zeta = np.asarray(zeta, dtype=complex)
        if np.abs(zeta).min(initial=np.inf) < 1e-14:
            raise PoleError("h* has its pole at 0")
        d = self.lift_params.disc
        a = d.a
        # p and q of the module docstring; p does not reuse q, which would move the rounding
        p = (zeta - np.conj(a)) * (1.0 - a * zeta) / (1.0 + abs(a) ** 2)
        q = (1.0 - a * zeta) / (1.0 + abs(a) ** 2)
        out = np.zeros(zeta.shape + (d.n + 1,), dtype=complex)
        out[..., 0] = 0.5 * p
        out[..., 1:] = -p[..., None] * self._vA - q[..., None] * self._wA
        out *= (self.lift_params.b / zeta)[..., None]
        return out

    def boundary(self, N=None):
        N = validate_grid(N or GRID_DEFAULT)
        return self.at(circle_nodes(N)).T

    def c_factor(self, zeta):
        """Real factor with h* = c * (d r / d z) o h on the boundary."""
        zeta = np.asarray(zeta, dtype=complex)
        a = self.lift_params.disc.a
        return self.lift_params.b * (1.0 - 2.0 * (a * zeta).real / (1.0 + abs(a) ** 2))


@dataclass(frozen=True)
class ProjectivizedLift:
    """Boundary values of f = (h, h*_0/h*_n, ..., h*_{n-1}/h*_n).

    When the normalizing component (conj(w)^T A)_n vanishes, the alpha
    coordinates are permuted first (largest-modulus entry moved into the
    last slot); the permutation and the permuted model are recorded.
    """

    values: np.ndarray
    quadric: Hyperquadric
    params: DiscParams
    permutation: tuple | None


def projectivize_lift(q, l, N=None):
    """Boundary of the projectivized lift; independent of the scale b."""
    N = validate_grid(N or GRID_DEFAULT)
    d = l.disc
    wA = d.w.conj() @ q.A
    perm = None
    if abs(wA[-1]) < 1e-12 * np.abs(wA).max():
        k = int(np.argmax(np.abs(wA)))
        if k == d.n - 1 or abs(wA[k]) < 1e-12:
            raise NormalizationError("no coordinate ordering normalizes the lift")
        sigma = list(range(d.n))
        sigma[k], sigma[d.n - 1] = sigma[d.n - 1], sigma[k]
        perm = tuple(sigma)
        A = q.A[np.ix_(sigma, sigma)]
        q = Hyperquadric(n=q.n, A=A)
        d = DiscParams(y0=d.y0, v=d.v[list(sigma)], w=d.w[list(sigma)], a=d.a)
        l = LiftParams(disc=d, b=l.b)
    lift = ClosedFormLift(q, l)
    h = lift.disc.boundary(N)
    hs = lift.boundary(N)
    f = np.empty((2 * d.n + 1, N), dtype=complex)
    f[: d.n + 1] = h
    f[d.n + 1 :] = hs[: d.n] / hs[d.n]
    return ProjectivizedLift(values=f, quadric=q, params=d, permutation=perm)


def disc_through(q, p0, z):
    """Parameters of the centered disc through z in Q, with h(0)=(p0, 0).

    a = (z0 - p0)/(z0 + conj(p0)), w = (1 - a) z_a, v = 0, y0 = Im p0;
    |a| < 1 exactly when Re z0 Re p0 > 0.
    """
    p0 = complex(p0)
    z = np.asarray(z, dtype=complex)
    if z.shape != (q.n + 1,):
        raise InvalidInputError(f"z must be a point of C^{q.n + 1}")
    if not satisfies_condition_star(q, p0):
        raise InvalidInputError("center (p0, 0) does not satisfy the centering condition")
    z0 = z[0]
    if z0.real * p0.real <= 0.0:
        raise NotReachableError(f"Re z0 * Re p0 = {z0.real * p0.real} is not positive")
    if abs(q.eval_r(z)) > 1e-10 * (1.0 + np.linalg.norm(z) ** 2):
        raise InvalidInputError("z does not lie on the hyperquadric")
    # the pole z0 = -conj(p0) lies inside the unreachable half-space, so the
    # sign check above normally shadows this guard
    if abs(z0 + np.conj(p0)) < 1e-13 * (1.0 + abs(z0)):
        raise PoleError("z0 = -conj(p0) is a pole of the center map")
    a = (z0 - p0) / (z0 + np.conj(p0))
    w = (1.0 - a) * z[1:]
    return DiscParams(y0=p0.imag, v=np.zeros(q.n, dtype=complex), w=w, a=a)


@dataclass(frozen=True)
class GluingReport:
    max_residual: float
    lift_defect: float


def verify_gluing(m, h):
    """Boundary residual and lift defect of (n+1, N) boundary samples h.

    Both near zero characterize (numerically) a stationary disc of m.
    Lift-construction failures propagate.
    """
    if isinstance(m, Hyperquadric):
        m = PerturbedHypersurface(base=m)
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != m.n + 1:
        raise InvalidInputError(f"expected (n+1, N) samples, got {h.shape}")
    residual = float(np.abs(m.eval_rho_many(h.T)).max())
    defect = float(np.max(construct_regular_lift(m, h).defects))
    return GluingReport(max_residual=residual, lift_defect=defect)
