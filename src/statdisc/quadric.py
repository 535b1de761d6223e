"""Hyperquadrics, their polynomial perturbations, and centered-disc existence.

The model hypersurface is Q = {r = 0} with

    r(z) = Re z0 - conj(z_a) . (A z_a),   z = (z0, z_a) in C^(n+1),

for a non-degenerate Hermitian n x n matrix A.  Perturbed hypersurfaces
are {rho = 0} with rho = r + eps * s, where s is a real polynomial in the
2n+2 real coordinates (Re z0, Im z0, Re z1, Im z1, ...).

Holomorphic derivative convention throughout the package:
d/dz = (d/dx - i d/dy) / 2, so grad r(z) = (1/2, -conj(z_a)^T A).
"""

import copy
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import _kernels
from .errors import InvalidInputError, UsageError

HERMITIAN_TOL = 1e-14
COND_BOUND = 1e12
# highest total degree of a perturbation monomial
MAX_DEGREE = 6


def _as_complex_vector(z, length=None):
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {z.shape}")
    if length is not None and z.shape[0] != length:
        raise InvalidInputError(f"expected length {length}, got {z.shape[0]}")
    if not (np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))):
        raise InvalidInputError("non-finite entries in input vector")
    return z


@dataclass(frozen=True)
class Hyperquadric:
    """Non-degenerate Hermitian model hypersurface in C^(n+1).

    n is the complex tangent dimension; A the Hermitian form. A is
    symmetrized on construction and rejected when non-Hermitian beyond
    1e-14 entrywise or when its condition number exceeds COND_BOUND.
    """

    n: int
    A: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be a positive integer")
        A = np.asarray(self.A, dtype=complex)
        if A.shape != (self.n, self.n):
            raise InvalidInputError(f"A must be {self.n}x{self.n}, got {A.shape}")
        if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
            raise InvalidInputError("A has non-finite entries")
        scale = max(1.0, float(np.abs(A).max()))
        if np.abs(A - A.conj().T).max() > HERMITIAN_TOL * scale:
            raise InvalidInputError("A is not Hermitian to 1e-14")
        A = 0.5 * (A + A.conj().T)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] > COND_BOUND:
            raise InvalidInputError("A is degenerate or too ill-conditioned")
        A.flags.writeable = False
        object.__setattr__(self, "A", A)

    # -- evaluation ---------------------------------------------------

    def eval_r(self, z):
        """r(z) for a single point z in C^(n+1)."""
        z = _as_complex_vector(z, self.n + 1)
        return float(self.eval_r_many(z[None, :])[0])

    def eval_r_many(self, z):
        """r at each row of z, shape (P, n+1) -> (P,)."""
        z = np.asarray(z, dtype=complex)
        za = z[:, 1:]
        quad = np.einsum("pi,ij,pj->p", za.conj(), self.A, za)
        bad = np.abs(quad.imag) > 1e-12 * (1.0 + np.abs(quad))
        if bad.any():
            raise InvalidInputError("Hermitian form returned a non-real value")
        return z[:, 0].real - quad.real

    def grad_r_many(self, z):
        """(1/2, -conj(z_a)^T A) at each row of z, shape (P, n+1)."""
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        out[:, 0] = 0.5
        out[:, 1:] = -(z[:, 1:].conj() @ self.A)
        return out

    def definiteness(self):
        """"positive-definite", "negative-definite" or "indefinite"."""
        w, _ = np.linalg.eigh(self.A)
        if w[0] > 0:
            return "positive-definite"
        if w[-1] < 0:
            return "negative-definite"
        return "indefinite"

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {
            "n": self.n,
            "A": [[float(v.real), float(v.imag)] for v in self.A.reshape(-1)],
        }

    @classmethod
    def from_json(cls, obj):
        n = _json_value(obj, "n", _json_int)
        pairs = _json_value(obj, "A", lambda A: [complex(re, im) for re, im in A])
        flat = np.array(pairs, dtype=complex)
        if n < 1:  # before the reshape, which cannot take a negative n
            raise InvalidInputError("n must be a positive integer")
        if flat.size != n * n:
            raise InvalidInputError("A must hold n*n row-major entries")
        return cls(n=n, A=flat.reshape(n, n))


def _json_value(obj, key, convert, *default):
    """convert(obj[key]), or the default of a missing optional key.

    A model file that is not an object, lacks a required key, or holds a
    value convert cannot take is a usage error that names the key.
    """
    if not isinstance(obj, dict) or (key not in obj and not default):
        raise UsageError(f"model file needs an object with key {key!r}")
    if key not in obj:
        return default[0]
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"model file key {key!r}: {exc}") from None


def _json_int(value):
    """A JSON integer; a float or a bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def z_to_real_coords(z):
    """(...,n+1) complex -> (...,2n+2) real: (Re z0, Im z0, Re z1, ...)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


@dataclass(frozen=True, slots=True)
class Frame:
    """A complex-affine map Phi of C^(n+1) with r o Phi = c2 r, held by
    its inverse Phi^-1(y) = L y + t.

    The automorphisms of Q up to scale are such maps (Chern-Moser 1974):
    the Heisenberg translations keep r, the dilation (c^2 z0, c z_a)
    scales it by c^2.  Phi takes {r + eps s = 0} to {r + eps c2 s o Phi^-1
    = 0}, which PerturbedHypersurface evaluates by composition.
    """

    L: np.ndarray
    t: np.ndarray
    c2: float

    @classmethod
    def heisenberg(cls, q, b, tau):
        """F(z0, z) = (z0 - 2 b*Az + b*Ab - i tau, z - b), which keeps r."""
        b = np.asarray(b, dtype=complex)
        bA = b.conj() @ q.A
        L = np.eye(q.n + 1, dtype=complex)
        L[0, 1:] = 2.0 * bA
        return cls(L=L, t=np.concatenate([[np.real(bA @ b) + 1j * tau], b]), c2=1.0)

    @classmethod
    def dilation(cls, n, c):
        """D(z0, z) = (c^2 z0, c z), which scales r by c^2."""
        L = np.diag(np.concatenate([[1.0 / c**2], np.full(n, 1.0 / c)])).astype(complex)
        return cls(L=L, t=np.zeros(n + 1, dtype=complex), c2=c**2)

    def then(self, other):
        """The frame of other o self: Phi_other after Phi_self."""
        return Frame(L=self.L @ other.L, t=self.L @ other.t + self.t, c2=self.c2 * other.c2)

    def inverse(self, y):
        """Phi^-1 at each row of y, shape (..., n+1)."""
        return y @ self.L.T + self.t

    def forward(self, z):
        """Phi at each row of z, shape (..., n+1)."""
        return np.linalg.solve(self.L, (np.asarray(z) - self.t).T).T

    @property
    def real_L(self):
        """L as a real matrix on the coordinates (Re y0, Im y0, Re y1, ...);
        not cached, so a kept disc's frame holds L and t alone."""
        R = np.empty((2 * self.L.shape[0],) * 2)
        R[0::2, 0::2] = R[1::2, 1::2] = self.L.real
        R[1::2, 0::2] = self.L.imag
        R[0::2, 1::2] = -self.L.imag
        return R


@dataclass(frozen=True)
class PerturbedHypersurface:
    """rho = r + eps * s with s a real polynomial in the real coordinates.

    terms maps a multi-index over the 2n+2 real coordinates to its real
    coefficient. eps = 0 reproduces the quadric along the identical code
    path (the polynomial is never touched).  frame, when given, is a
    Frame Phi and the surface is Phi({r + eps s = 0}) = {r + eps c2 s o
    Phi^-1 = 0}, evaluated by composition; epsilon stays the eps of the
    unframed surface.  Model files do not carry a frame.
    """

    base: Hyperquadric
    epsilon: float = 0.0
    terms: dict = field(default_factory=dict)
    frame: Frame | None = None

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise InvalidInputError(f"epsilon must be finite, got {self.epsilon}")
        d = 2 * (self.base.n + 1)
        powers = []
        coeffs = []
        clean = {}
        for mi, c in sorted(self.terms.items()):
            mi = tuple(int(m) for m in mi)
            if len(mi) != d or any(m < 0 for m in mi):
                raise InvalidInputError(f"bad multi-index {mi}")
            if sum(mi) > MAX_DEGREE:
                raise InvalidInputError(f"term degree {sum(mi)} exceeds {MAX_DEGREE}")
            c = float(c)
            if not np.isfinite(c):
                raise InvalidInputError("non-finite coefficient")
            if c != 0.0:
                powers.append(mi)
                coeffs.append(c)
                clean[mi] = c
        object.__setattr__(self, "terms", clean)
        powers = np.array(powers, dtype=np.int64).reshape(len(coeffs), d)
        coeffs = np.array(coeffs, dtype=float)
        powers.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_coeffs", coeffs)
        # derivative stacks by order, and (0, 1) for _value_and_gradient;
        # with_epsilon and in_frame copies share the dict
        object.__setattr__(self, "_stacks", {})

    @property
    def n(self):
        return self.base.n

    def with_epsilon(self, epsilon):
        """The same terms and frame at another eps; self when eps is unchanged.

        The derivative stacks depend on the terms alone, so the copy
        shares them with self.
        """
        if epsilon == self.epsilon:
            return self
        out = copy.copy(self)
        object.__setattr__(out, "epsilon", epsilon)
        return out

    def in_frame(self, frame):
        """Phi(self) for the Frame Phi: the same terms, pre-mapped by Phi^-1;
        the copy shares self's derivative stacks."""
        out = copy.copy(self)
        object.__setattr__(out, "frame", frame if self.frame is None else self.frame.then(frame))
        return out

    def _is_pure_quadric(self):
        return self.epsilon == 0.0 or self._coeffs.size == 0

    def _s_coords(self, z):
        """Real coordinates at which s is evaluated for the rows of z, and
        the weight of s in rho: eps, or eps c2 in a frame."""
        if self.frame is None:
            return z_to_real_coords(z), self.epsilon
        return z_to_real_coords(self.frame.inverse(z)), self.epsilon * self.frame.c2

    def eval_rho_many(self, z):
        base = self.base.eval_r_many(z)
        if self._is_pure_quadric():
            return base
        x, weight = self._s_coords(z)
        s = _kernels.poly_eval(x, self._powers, self._coeffs)
        return base + weight * s

    def grad_rho_many(self, z):
        base = self.base.grad_r_many(z)
        if self._is_pure_quadric():
            return base
        x, weight = self._s_coords(z)
        g = _kernels.poly_eval(x, *self._derivative_stack(1))
        return base + self._holomorphic_grad(weight, g)

    def rho_and_grad_many(self, z):
        """eval_rho_many and grad_rho_many at the rows of z, bit for bit,
        from one set of coordinates and one polynomial sweep over s's
        monomials stacked on its gradient's (_value_and_gradient)."""
        base, base_grad = self.base.eval_r_many(z), self.base.grad_r_many(z)
        if self._is_pure_quadric():
            return base, base_grad
        x, weight = self._s_coords(z)
        s, g = _kernels.poly_eval(x, *self._value_and_gradient())
        return base + weight * s, base_grad + self._holomorphic_grad(weight, g)

    def _holomorphic_grad(self, weight, g):
        """weight times d s / d z from the real gradient g (P, 2n+2) of s."""
        # d/dz_j = (d/dx_j - i d/dy_j) / 2 applied to the real polynomial;
        # Phi^-1 is complex-affine, so a frame multiplies it by L
        grad = weight * 0.5 * (g[:, 0::2] - 1j * g[:, 1::2])
        return grad if self.frame is None else grad @ self.frame.L

    def hess_s_many(self, z):
        """Real Hessian of s (without eps) at each row of z: (P, 2n+2, 2n+2);
        in a frame, of c2 s o Phi^-1, that is c2 R^T H R with R = real_L."""
        x, _weight = self._s_coords(z)
        d = x.shape[1]
        i, j = np.triu_indices(d)
        upper = _kernels.poly_eval(x, *self._derivative_stack(2))
        out = np.empty((x.shape[0], d, d))
        out[:, i, j] = out[:, j, i] = upper
        if self.frame is None:
            return out
        R = self.frame.real_L
        return self.frame.c2 * (R.T @ out @ R)

    def _derivative_stack(self, order):
        """All derivatives of s of one order, one column per multi-index,
        built once for self and its copies.

        Columns follow itertools.combinations_with_replacement over the
        real coordinates, which for order 2 is np.triu_indices order.
        """
        if order not in self._stacks:
            d = 2 * (self.n + 1)
            combos = combinations_with_replacement(range(d), order)
            betas = [np.bincount(c, minlength=d) for c in combos]
            self._stacks[order] = _kernels.stack_derivatives(self._powers, self._coeffs, betas)
        return self._stacks[order]

    def _value_and_gradient(self):
        """s's powers stacked over its gradient's (_derivative_stack(1)),
        with each block's coefficients, for one poly_eval of both; built
        once for self and its copies."""
        if (0, 1) not in self._stacks:
            powers, coeffs = self._derivative_stack(1)
            self._stacks[0, 1] = np.concatenate([self._powers, powers]), [self._coeffs, coeffs]
        return self._stacks[0, 1]

    def to_json(self):
        obj = self.base.to_json()
        obj["epsilon"] = float(self.epsilon)
        obj["terms"] = [
            {"multi_index": list(mi), "coeff": float(c)} for mi, c in sorted(self.terms.items())
        ]
        return obj

    @classmethod
    def from_json(cls, obj):
        base = Hyperquadric.from_json(obj)
        terms = {}
        for t in _json_value(obj, "terms", list, []):
            mi = _json_value(t, "multi_index", lambda mi: tuple(_json_int(m) for m in mi))
            terms[mi] = _json_value(t, "coeff", float)
        return cls(base=base, epsilon=_json_value(obj, "epsilon", float, 0.0), terms=terms)


def satisfies_condition_star(q, p0):
    """Whether the center (p0, 0, ..., 0) is admissible for q.

    Requires the point off Q (Re p0 != 0) and, for definite forms, the
    sign of Re p0 matching the definiteness.
    """
    p0 = complex(p0)
    kind = q.definiteness()
    if p0.real == 0.0:
        return False
    if kind == "positive-definite":
        return p0.real > 0
    if kind == "negative-definite":
        return p0.real < 0
    return True


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    witness: np.ndarray | None
    case: str
    condition_star: bool | None


def exists_disc_centered(q, p):
    """Existence of a non-constant stationary disc of Q centered at p.

    Discs centered at p exist iff some w != 0 satisfies
    conj(w)^T A w = x0 := r(p).  Definite forms therefore require
    sign(x0) to match the definiteness (and x0 != 0); an indefinite form
    succeeds for every p.  Returns an explicit witness w when it exists.

    Note the related printed statement elsewhere carries the opposite
    sign for the definite cases; the sign used here is forced by the
    positivity of the form on nonzero vectors and is the one consistent
    with the admissible-center condition (satisfies_condition_star).
    """
    p = _as_complex_vector(p, q.n + 1)
    x0 = q.eval_r(p)
    kind = q.definiteness()
    w_eig, v_eig = np.linalg.eigh(q.A)
    is_center_form = bool(np.all(p[1:] == 0))
    cond = satisfies_condition_star(q, p[0]) if is_center_form else None

    if kind == "positive-definite":
        if x0 <= 0:
            return ExistenceResult(False, None, kind, cond)
        lam, u = w_eig[-1], v_eig[:, -1]
        return ExistenceResult(True, np.sqrt(x0 / lam) * u, kind, cond)
    if kind == "negative-definite":
        if x0 >= 0:
            return ExistenceResult(False, None, kind, cond)
        lam, u = w_eig[0], v_eig[:, 0]
        return ExistenceResult(True, np.sqrt(x0 / lam) * u, kind, cond)

    # Indefinite: mix one positive and one negative eigenvector.
    lam_neg, u_neg = w_eig[0], v_eig[:, 0]
    lam_pos, u_pos = w_eig[-1], v_eig[:, -1]
    beta2 = (1.0 + abs(x0)) / (-lam_neg)
    alpha2 = (x0 - lam_neg * beta2) / lam_pos
    w = np.sqrt(alpha2) * u_pos + np.sqrt(beta2) * u_neg
    return ExistenceResult(True, w, kind, cond)
