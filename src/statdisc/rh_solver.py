"""Newton continuation of stationary discs onto perturbed hypersurfaces.

The unknowns are the truncated holomorphic Fourier coefficients of the
disc h (modes 0..M per component); the equations are the boundary
gluing rho(h) = 0 on the circle grid together with the negative Fourier
modes of zeta * lambda * (d rho / d z_j) o h for j < n, where the
positive factor lambda is rebuilt from h at every evaluation by
construct_regular_lift.  The system is rank deficient by
exactly the dimension of the disc family, so Newton steps use the
minimum-norm least-squares solution; that keeps the tangent space
observable for the family-dimension diagnostics.

The Jacobian is the exact linearization of that residual, by one column
rule (_DiscSystem.columns), which Newton, the family dimension and the
tangent basis all use (Newton methods for nonlinear Riemann-Hilbert
problems in the sense of E. Wegert, Nonlinear Boundary Value Problems
for Holomorphic Functions and Singular Integral Equations, 1992).

Newton takes lstsq's minimum-norm step with _RCOND's cut from
_svd_steps: the QR of [J | -r] with Q never formed, then the SVD of
R's K x K block, as the tangent basis takes it (no -r).  Each
linearization is factored once: after an undamped Newton step the
solver tries the same factorization on the new residual and keeps the
step while the residual's sup norm at least halves; otherwise it
re-linearizes at the same point, so the fall-back is the damped Newton
step (the chord or Shamanskii method, C. T. Kelley, Solving Nonlinear
Equations with Newton's Method, SIAM 2003, 5.4).  max_iter caps the
linearizations; accepted chord steps at least halve the residual, so
there are at most log2(r0 / tol) of them.  tol, the step cut _RCOND
and the damping floor _DAMPING_MIN are constants.  Each residual takes
rho and its gradient, which the lift reads, from one polynomial sweep.
The certificate of a solved disc, lam and the lift defects, reads the
lift that the last residual built at the returned coefficients; no lift
is built again.  A residual below tol whose lift is refused is no stall:
its error names the defect's component, and it is not retried.

solve_with_homotopy solves a closed-form start (DiscParams), the one
start kind, in its normalized frame (DiscFrame): on the image Phi(M)
under an automorphism of the quadric up to scale, from the pole-0 disc,
which is exact at eps = 0 on every grid, by one step to eps and one
retry through eps / 2; pins and constraints are reads of g
(DiscFrame.constraint).  solve_glued_disc is the same Newton on
whatever surface it is given, from a coefficient array.
Where its start is that pole-0 disc and misses tol, the first chord
operator is J0^+, with J0 the eps = 0 linearization there: rotation
invariant, so block diagonal in Fourier modes, with M + 1 blocks, of
which the at most four distinct are built in closed form and factored
once (_pole_zero_blocks, _PoleZero, _pole_zero_chord), with no dense
Jacobian.  J0 counts as a linearization.  Its steps lie off null(J0),
the tangent T0 of the family (y0, v, w, a) that the paper's explicit
parametrization gives, built in closed form beside J0's blocks
(_PoleZero.tangent, T0's one source), so unpinned the solved disc is the
member with T0^T (x - x0) = 0.  When a J0 step fails to halve the
residual, its steps are dropped and the exact Newton above runs from the
start.

family_dimension counts null(J) at a solution from J0's blocks too,
J0 at the framed start's direction (DiscFrame.u) that the solve's chord
factored: the solve hands its last system, with the lift of the
returned disc and that J0, to family_dimension and family_tangent_basis
(_solved_system), which read it once (GluedDisc._solved) and build the
same objects where it has none.  family_dimension takes two bounds on
J's singular values across the cut (_certified_dimension), in three
tiers.  The sample tier assembles no dense J: Weyl's inequality with a
bound on |J - J0|_2 from sup norms of the boundary functions J reads
(_sample_bound), and J applied to the family's tangent by J-vector
products (_DiscSystem.product).  Where it proves nothing, the eta tier
reads |J0^+ E|_F through J0's solve of the dense J, and where that
proves nothing, the values-only SVD of J counts.
"""

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from typing import ClassVar

import numpy as np

from .boundary_analysis import (
    _regular_lift,
    circle_nodes,
    construct_regular_lift,
    hilbert_transform,
    validate_grid,
)
from .disc import Disc, DiscParams, disc_through
from .errors import (
    DimensionAmbiguousError,
    InvalidInputError,
    LiftConstructionError,
    NoConvergenceError,
    TargetInversionError,
)
from .quadric import (
    Frame,
    Hyperquadric,
    PerturbedHypersurface,
    exists_disc_centered,
    satisfies_condition_star,
)


@dataclass(frozen=True)
class SolveConfig:
    """Circle grid N, truncation M and the Newton linearization cap; tol is fixed."""

    N: int = 256
    M: int = 48
    max_iter: int = 30  # linearizations, J0 included; chord steps reuse one and are not counted
    tol: ClassVar[float] = 1e-11

    def __post_init__(self):
        validate_grid(self.N)
        if not 0 < self.M < self.N // 2:
            raise InvalidInputError("need 0 < M < N/2")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be at least 1, got {self.max_iter}")


_BLOCK = 16  # modes per Jacobian column block; bounds the transient footprint
# a chord step is kept only if it shrinks the residual's sup norm by this
# factor (Kelley 2003, 5.4; see the module docstring)
_CHORD_CONTRACTION = 0.5
_RCOND = 1e-8  # pseudo-inverse cut; keeps Newton steps clear of the family's null cluster
_DAMPING_MIN = 1.0 / 64.0  # the line search gives up below this step fraction
_SV_CUT, _GAP_MIN = 1e-6, 1e3  # _null_count: the null cut over the largest, the least gap


def _as_perturbed(m):
    if isinstance(m, Hyperquadric):
        return PerturbedHypersurface(base=m)
    return m


def _boundary_samples(coeffs, N):
    """Samples (..., n+1, N) on the circle grid of truncated holomorphic
    coefficients (..., n+1, M+1)."""
    spec = np.zeros(coeffs.shape[:-1] + (N,), dtype=complex)
    spec[..., : coeffs.shape[-1]] = coeffs
    return np.fft.ifft(spec * N, axis=-1)


@dataclass(frozen=True)
class _BoundaryFunctions:
    """The functions on the circle grid that J reads at a point, each
    (..., N): grad = (d rho / d z) o h (n+1, N); ratio_p and ratio_q
    (n+1, N), d phi / phi per unit of dh_j and of conj(dh_j); lift_p and
    lift_q (n, n+1, N), zeta lam d grad_i (i < n) per the same units;
    and lift_g = zeta lam grad_i (n, N)."""

    grad: np.ndarray
    ratio_p: np.ndarray
    ratio_q: np.ndarray
    lift_p: np.ndarray
    lift_q: np.ndarray
    lift_g: np.ndarray


class _DiscSystem:
    """Residual assembly over the truncated coefficient space.

    The unknowns are the real and imaginary parts of all (n+1, M+1)
    coefficients.  constraint = (read, target) appends the real equations
    read(coeffs) = target (a pin is such a read, DiscFrame.constraint);
    the read is real-linear in the coefficients, so its Jacobian rows
    are built once (rows).  residual keeps the regular lift it builds as
    lift, and a solve from the pole-0 disc keeps J0 (_PoleZero) as j0.
    """

    def __init__(self, m, cfg, constraint=None):
        self.m = _as_perturbed(m)
        self.cfg = cfg
        self.n = self.m.n
        self.zeta = circle_nodes(cfg.N)
        self.constraint = constraint
        self.size = 2 * (self.n + 1) * (cfg.M + 1)  # packed unknowns
        rows = np.empty((0, self.size)) if constraint is None else self.rows(constraint[0])
        self.constraint_rows = np.ascontiguousarray(rows)
        self.lift = self.j0 = None

    # -- coefficient packing -------------------------------------------

    def pack(self, coeffs):
        return np.concatenate([coeffs.real.ravel(), coeffs.imag.ravel()])

    def unpack(self, x):
        """Coefficients of x, or of each packed vector along x's last axis."""
        k = x.shape[-1] // 2
        return (x[..., :k] + 1j * x[..., k:]).reshape(x.shape[:-1] + (self.n + 1, -1))

    def rows(self, read):
        """Jacobian (rows, packed size) of a real-linear read of the
        coefficients: its reads of the unit coefficients, then of their
        i-multiples, as pack orders the unknowns; reads take coefficient
        arrays stacked on leading axes."""
        unit = np.eye(self.size // 2, dtype=complex).reshape(-1, self.n + 1, self.cfg.M + 1)
        return np.concatenate([read(unit), read(1j * unit)]).T

    # -- residual and its exact linearization ----------------------------

    def residual(self, x):
        """The residual at x; its regular lift stays as self.lift, where
        the solve's certificate reads the last evaluation's.  rho and its
        gradient, which the lift reads, come from one polynomial sweep."""
        coeffs = self.unpack(x)
        h = _boundary_samples(coeffs, self.cfg.N)
        rho, grad = self.m.rho_and_grad_many(h.T)
        self.lift = _regular_lift(self.m, grad, self.zeta)
        neg = self.lift.spec[: self.n, self.cfg.N // 2 :].reshape(-1)
        parts = [rho, neg.real, neg.imag]
        if self.constraint is not None:
            read, target = self.constraint
            parts.append(read(coeffs) - target)
        return np.concatenate(parts)

    def sup_norm(self, r):
        return float(np.abs(r).max())

    def grad_derivatives(self, h):
        """d(grad rho)_i / d z_j and d(grad rho)_i / d conj(z_j) along h.

        Two complex (n+1, n+1, N) arrays indexed [i, j, node]: the
        quadric contributes the constant -A^T block of the second, eps * s
        its real Hessian under d/dz = (d/dx - i d/dy) / 2.
        """
        ncomp, N = h.shape
        P = np.zeros((ncomp, ncomp, N), dtype=complex)
        Q = np.zeros((ncomp, ncomp, N), dtype=complex)
        Q[1:, 1:] = -self.m.base.A.T[:, :, None]
        if self.m.epsilon != 0.0:
            H = self.m.hess_s_many(h.T).transpose(1, 2, 0)
            xx, xy = H[0::2, 0::2], H[0::2, 1::2]
            yx, yy = H[1::2, 0::2], H[1::2, 1::2]
            P += 0.25 * self.m.epsilon * (xx - yy - 1j * (xy + yx))
            Q += 0.25 * self.m.epsilon * (xx + yy + 1j * (xy - yx))
        return P, Q

    def boundary_functions(self, x, lift=None):
        """The boundary functions at x that J reads (_BoundaryFunctions),
        from the regular lift's grad, lam and phi and grad_derivatives'
        P and Q; lift is the regular lift at x, built here when None."""
        n = self.n
        h = _boundary_samples(self.unpack(x), self.cfg.N)
        if lift is None:
            lift = construct_regular_lift(self.m, h)
        grad, lam, phi = lift.grad.T, lift.lam, lift.phi
        P, Q = self.grad_derivatives(h)
        zl = self.zeta * lam
        return _BoundaryFunctions(
            grad=grad,
            ratio_p=self.zeta * P[n] / phi,
            ratio_q=self.zeta * Q[n] / phi,
            lift_p=zl * P[:n],
            lift_q=zl * Q[:n],
            lift_g=zl * grad[:n],
        )

    def columns(self, f, dh, comps=slice(None)):
        """J's column rule: the residual rows (m, N + n N), constraint
        rows aside, that m coefficient directions move, from the boundary
        functions f at x and the directions' samples dh (m, c, N) in the
        slice comps of c components (the other components do not move).

        Along dh, rho moves by 2 Re(grad . dh); log lam by -T(Im r) - Re r,
        with r = ratio_p . dh + ratio_q . conj(dh) the move of d phi / phi;
        and the lifted components zeta lam grad_i by d log lam lift_g +
        lift_p . dh + lift_q . conj(dh), whose negative modes go through
        the residual's FFT and are returned Re first, then Im.
        """
        N = self.cfg.N
        dhc = dh.conj()
        rho = 2.0 * (f.grad[comps] * dh).sum(axis=1).real
        ratio = (f.ratio_p[comps] * dh + f.ratio_q[comps] * dhc).sum(axis=1)
        dlog = -hilbert_transform(ratio.imag) - ratio.real
        dlift = (
            dlog[:, None] * f.lift_g
            + (f.lift_p[:, comps] * dh[:, None]).sum(axis=2)
            + (f.lift_q[:, comps] * dhc[:, None]).sum(axis=2)
        )
        neg = (np.fft.fft(dlift, axis=-1)[..., N // 2 :] / N).reshape(dh.shape[0], -1)
        return np.concatenate([rho, neg.real, neg.imag], axis=1)

    def product(self, f, V):
        """J V for packed columns V (size, m), constraint rows included,
        from the boundary functions f at x: columns over all n+1
        components of V's samples (a Jacobian-vector product, Kelley 2003)."""
        dh = _boundary_samples(self.unpack(V.T), self.cfg.N)  # (m, n+1, N)
        return np.concatenate([self.columns(f, dh).T, self.constraint_rows @ V])

    def jacobian(self, x, f=None):
        """Exact derivative of residual at x, by columns from the boundary
        functions f at x (built here when None), with the constant
        constraint_rows below.  The column of the coefficient of zeta^k in
        component j moves that component alone, by zeta^k or i zeta^k; a
        block holds up to _BLOCK modes of one component and one of the two
        parts.
        """
        N, n = self.cfg.N, self.n
        f = self.boundary_functions(x) if f is None else f
        J = np.empty((N + n * N + self.constraint_rows.shape[0], x.size), order="F")
        J[N + n * N :] = self.constraint_rows
        JT = J.T  # a column of J is a row of J.T, contiguous in Fortran order
        modes = self.cfg.M + 1
        nodes = np.arange(N)
        for j in range(n + 1):
            for lo in range(0, modes, _BLOCK):
                mode = np.arange(lo, min(lo + _BLOCK, modes))
                zk = self.zeta[(mode[:, None] * nodes) % N]
                for offset, unit in ((j * modes, 1.0), ((n + 1 + j) * modes, 1j)):
                    # pack lists a component's modes contiguously
                    c = slice(offset + lo, offset + lo + mode.size)
                    JT[c, : N + n * N] = self.columns(f, unit * zk[:, None], slice(j, j + 1))
        return J


def _polyval(coeffs, z):
    """sum_k coeffs[..., k] z^k at a point z, or at each of an array of points
    (a last axis added); powers by one cumulative product."""
    z = np.asarray(z, dtype=complex)
    powers = np.empty((coeffs.shape[-1],) + z.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = z
    return coeffs @ np.cumprod(powers, axis=0)


@dataclass(frozen=True, slots=True)
class DiscFrame:
    """The normalized frame of a solve: the disc on M is
    h = Phi^-1 o g o psi^-1, with g the solved disc on Phi(M) and
    psi(zeta) = (zeta + conj(a)) / (1 + a zeta).

    normalized builds it from a closed-form start as build_B reduces a
    symbol: psi moves the pole a to 0, the Heisenberg translation F by
    g(0) and the dilation D with c = 1 / |w'| (w' = w / (1 - |a|^2)) make
    Phi = D o F take h o psi to the centered disc (uAu, u zeta), u = w/|w|.
    That start has degree 1, so it solves eps = 0 exactly at every M
    (Lempert 1981; Chern-Moser 1974).  u records that start's direction,
    its coefficients' mode 1, where J0 linearizes for the solve's chord
    and family_dimension's certificate alike (_PoleZero).
    """

    a: complex
    phi: Frame
    u: np.ndarray | None = None

    @classmethod
    def identity(cls, n):
        """The frame of a bare solve: a = 0 and Phi the identity, so h = g,
        with no start direction recorded."""
        eye = np.eye(n + 1, dtype=complex)
        return cls(a=0.0, phi=Frame(L=eye, t=np.zeros(n + 1, dtype=complex), c2=1.0))

    @classmethod
    def normalized(cls, q, params, M):
        """The frame of the closed-form disc params, and g's start coefficients (n+1, M+1)."""
        a, v, w = params.a, params.v, params.w
        s = 1.0 - abs(a) ** 2
        w1 = w / s
        b = v + np.conj(a) * w1  # g(0)_a
        tau = params.y0 + 2.0 * np.imag(np.conj(a) * (v.conj() @ q.A @ w)) / s  # Im g(0)_0
        c = 1.0 / np.linalg.norm(w1)
        phi = Frame.heisenberg(q, b, tau).then(Frame.dilation(q.n, c))
        unit = DiscParams(y0=0.0, v=np.zeros(q.n), w=c * w1, a=0.0)
        coeffs = Disc(q, unit, check=False).coefficients(M)
        return cls(a=a, phi=phi, u=coeffs[1:, 1].copy()), coeffs

    def _point(self, zeta):
        """psi^-1(zeta) = (zeta - conj(a)) / (1 - a zeta)."""
        return (zeta - np.conj(self.a)) / (1.0 - self.a * zeta)

    def g_at(self, coeffs, zeta):
        """g(psi^-1(zeta)) of coefficient arrays stacked on leading axes:
        (..., n+1), or (..., n+1, P) for P points zeta."""
        return _polyval(coeffs, self._point(zeta))

    def h_at(self, coeffs, zeta):
        """h(zeta) less Phi^-1's constant t: L g(psi^-1(zeta)), (..., n+1)."""
        return self.g_at(coeffs, zeta) @ self.phi.L.T

    def h_slope(self, coeffs, zeta):
        """h'(zeta) = L g'(psi^-1(zeta)) (1 - |a|^2) / (1 - a zeta)^2, (..., n+1)."""
        dg = _polyval(np.arange(1, coeffs.shape[-1]) * coeffs[..., 1:], self._point(zeta))
        return (1.0 - abs(self.a) ** 2) / (1.0 - self.a * zeta) ** 2 * dg @ self.phi.L.T

    def constraint(self, pin=None, constraint=None):
        """The pin h(0) = pin and constraint = (read, target) of h as one
        (read, target) of g's coefficients, or None without either.

        The pin is the read g(-conj(a)) = Phi(pin).  Phi^-1 is affine, so
        a read of h is the read of L g o psi^-1 (the read called with
        frame=self) with its constant, the read of the constant disc t,
        taken off the target.
        """
        parts = []
        if pin is not None:
            parts.append((lambda c: _parts(self.g_at(c, 0.0)), _parts(self.phi.forward(pin))))
        if constraint is not None:
            read, target = constraint
            constant = np.zeros((self.phi.t.size, 2), dtype=complex)
            constant[:, 0] = self.phi.t
            parts.append((partial(read, frame=self), target - read(constant)))
        if not parts:
            return None
        reads, targets = zip(*parts)
        return lambda c: np.concatenate([r(c) for r in reads], axis=-1), np.concatenate(targets)

    def taylor(self, coeffs):
        """Taylor coefficients 0..M of h = Phi^-1 o g o psi^-1 from g's (n+1, M+1).

        Row k of T holds those of psi^-1(zeta)^k, each the truncated
        product of the one before with psi^-1's; |psi^-1| = 1 on the
        circle bounds every row's l2 norm by 1.
        """
        modes = coeffs.shape[-1]
        a = self.a
        first = np.empty(modes, dtype=complex)
        first[0] = -np.conj(a)
        first[1:] = (1.0 - abs(a) ** 2) * a ** np.arange(modes - 1)
        T = np.zeros((modes, modes), dtype=complex)
        T[0, 0] = 1.0
        for k in range(1, modes):
            T[k] = np.convolve(T[k - 1], first)[:modes]
        out = self.phi.L @ (coeffs @ T)
        out[:, 0] += self.phi.t
        return out


@dataclass(slots=True)
class GluedDisc:
    """Converged disc on a perturbed hypersurface.

    coeffs holds the truncated holomorphic coefficients (n+1, M+1) of the
    solved disc g on Phi(M), with frame its DiscFrame (the identity frame
    for a bare solve_glued_disc, where g is the disc h on M itself).  lam
    is the positive boundary factor of the regular lift at the solution,
    and residual_sup and lift_defects its certificate, all on the solve
    grid in that frame: there the residual reads c2 times rho of M.
    residual_history holds the residual's sup norm at the start and after
    each accepted step, residual_sup last.  The reads map back to M.

    _solved, outside equality, repr and every copy, is the hand-over of
    the solve: (m, system), the surface it was given and its last framed
    _DiscSystem, whose lift is this disc's and whose j0 is J0 at the
    frame's u.  family_dimension or family_tangent_basis reads it once and
    clears it (_solved_system).  A bare solve_glued_disc names no surface
    (None), so none is read there: it leaves its system for
    solve_with_homotopy, which calls it once per stage.  Until it is read
    or the disc dropped, a kept disc holds that system (at n = 2, N = 256,
    M = 48, about 60-75 KB free, 90-115 KB pinned).
    """

    coeffs: np.ndarray
    lam: np.ndarray
    config: SolveConfig
    frame: DiscFrame
    pin_center: np.ndarray | None
    lift_defects: np.ndarray
    linearizations: int
    residual_history: list
    _solved: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        """Pickle and copy state without the hand-over, whose reads are closures."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["_solved"] = None
        return None, state

    @property
    def residual_sup(self):
        return self.residual_history[-1]

    @property
    def iterations(self):
        return len(self.residual_history) - 1

    @property
    def h_coeffs(self):
        """Taylor coefficients 0..M of the disc h on M, (n+1, M+1)."""
        return self.frame.taylor(self.coeffs)

    def boundary_values(self, N=None):
        N = validate_grid(N or self.config.N)
        return self.frame.phi.inverse(self.frame.g_at(self.coeffs, circle_nodes(N)).T).T

    def center(self):
        """h(0); a pinned disc returns its pin, which Newton holds to rounding."""
        if self.pin_center is not None:
            return self.pin_center.copy()
        return self.frame.h_at(self.coeffs, 0.0) + self.frame.phi.t

    def velocity(self):
        return self.frame.h_slope(self.coeffs, 0.0)

    def endpoint(self):
        return self.frame.h_at(self.coeffs, 1.0) + self.frame.phi.t


def _svd_steps(J, b):
    """Newton step for J s = b and the chord solver for J s = c: lstsq's
    truncated minimum-norm solutions, with Q never formed.

    R of the QR factorization of [J | b] carries Q^T b in its last
    column; the SVD U S V^T of its leading K x K block is that of J.
    Over the values above _RCOND * S[0] (lstsq's cut), the minimum-norm
    solution of J s = b is V S^-1 U^T (Q^T b) and that of J s = c
    V S^-2 V^T J^T c.
    """
    K = J.shape[1]
    R = np.linalg.qr(np.column_stack([J, b]), mode="r")
    U, S, Vt = np.linalg.svd(R[:K, :K])
    keep = S > _RCOND * S[0]
    U, S, Vt = U[:, keep], S[keep], Vt[keep]
    return Vt.T @ ((U.T @ R[:K, K]) / S), lambda c: Vt.T @ ((Vt @ (J.T @ c)) / S**2)


def _pole_zero_blocks(A, u, N, M):
    """J0, the eps = 0 linearization at the pole-0 disc (u*Au + i y, u zeta),
    as real blocks (M + 1, 2n+2, 4n+2), one per Fourier mode p = 0..M.

    There grad r = (1/2, -conj(zeta) beta) with beta = conj(u)^T A, phi =
    -beta_n and lam = 1 / |beta_n| are constant, P = 0 and Q[1:, 1:] =
    -A^T.  So dh_j = e zeta^k moves d phi / phi by gamma zeta^(1-k), gamma
    = A_jn conj(e) / beta_n, and log lam by -2 Re(gamma zeta^(1-k)) (k >= 2;
    -Re gamma at k = 1, 0 at k = 0).  J0 commutes with zeta -> e^{it} zeta:
    after the orthogonal real DFT of the rho rows, block p holds
      rows: rho's cos p and sin p, then Re and Im of mode 1 - p of lifted
            component 0 and of mode -p of lifted components 1..n-1;
      columns: Re and Im of mode p of component 0, of mode p + 1 of
            components 1..n, and (at p = 1) of their mode 0.
    Every other row of J0 is 0, and a column reaches its block alone.
    Block p depends on p only at p = 0 (its scale, no sin row), p = 1 (the
    mode-0 columns, no lifted row of component 0) and p = M (no mode
    p + 1), so of the M + 1 blocks at most four are distinct: blocks
    2..M-1 are one matrix.
    """
    n = u.size
    e = np.array([1.0, 1j])
    beta = u.conj() @ A
    lam = 1.0 / abs(beta[-1])
    gamma = A[:, -1, None] * e.conj() / beta[-1]  # [j, e]
    # d rho = Re(c zeta^p) per column
    rho = np.zeros((M + 1, 4 * n + 2), dtype=complex)
    rho[:, :2] = e
    up = (-2.0 * beta[:, None] * e).ravel()
    rho[:-1, 2 : 2 * n + 2] = up
    rho[1, 2 * n + 2 :] = up.conj()
    # negative modes of zeta lam grad_i: -lam gamma / 2 (i = 0), and
    # lam (beta_i gamma - A_ji conj(e)) (i = 1..n-1), from mode k = p + 1 >= 2
    lift = np.zeros((M + 1, n, 4 * n + 2), dtype=complex)
    lift[2:-1, 0, 2 : 2 * n + 2] = (-0.5 * lam * gamma).ravel()
    lifted = beta[:-1, None, None] * gamma - A[:, :-1].T[:, :, None] * e.conj()
    lift[1:-1, 1:, 2 : 2 * n + 2] = lam * lifted.reshape(n - 1, 2 * n)
    B = np.empty((M + 1, 2 * n + 2, 4 * n + 2))
    scale = np.full((M + 1, 1), np.sqrt(N / 2))
    scale[0] = np.sqrt(N)
    B[:, 0] = scale * rho.real
    B[:, 1] = -scale * rho.imag
    B[0, 1] = 0.0  # mode 0 has no sin row
    B[:, 2::2] = lift.real
    B[:, 3::2] = lift.imag
    return B


class _PoleZero:
    """J0 (_pole_zero_blocks) by its distinct blocks, with its maps.

    J0 has M + 1 blocks, one per mode, of which the at most four
    distinct, J0's blocks at min(M, 3), are factored by one batched SVD;
    block[p] maps mode p to its own.  rows takes residual rows (the
    orthogonal real DFT of the rho rows, then the lifted modes each block
    holds) to block rows, and scatter block columns to packed unknowns;
    every row of J0 that no block holds is 0.  J0^+ is inv between them
    (solve): the blocks' pseudo-inverses V S^+ U^T, one matrix per mode,
    cut as np.linalg.pinv cuts J0, at _RCOND times the largest singular
    value of all; kept holds the values above that cut, each mode's
    counted.  solve is J0's one inverse, for the chord and the
    certificate alike.  tangent is T0, J0's null space: the family
    tangent at the pole-0 disc, the one source of T0 for the chord's
    constraint step and family_dimension.
    """

    def __init__(self, A, u, N, M):
        n = self.n = u.size
        self.A, self.u, self.N, self.M = A, u, N, M
        self.block = np.minimum(np.arange(M + 1), 2)
        self.block[M] = min(M, 3)
        U, S, Vt = np.linalg.svd(_pole_zero_blocks(A, u, N, min(M, 3)), full_matrices=False)
        keep = S > _RCOND * S.max()
        self.kept = S[self.block][keep[self.block]]
        inverse = np.where(keep, 1.0 / np.where(keep, S, 1.0), 0.0)
        inv = Vt.transpose(0, 2, 1) * inverse[:, None] @ U.transpose(0, 2, 1)
        self.inv = inv[self.block]  # (M + 1, 4n+2, 2n+2)
        self.weight = np.full((M + 1, 1), np.sqrt(2.0 / N))
        self.weight[0] = 1.0 / np.sqrt(N)
        # packed index of the Re part of each block's complex columns, -1
        # where the block's column is no unknown
        modes = M + 1
        re = np.full((modes, 2 * n + 1), -1)
        re[:, 0] = np.arange(modes)
        re[:-1, 1 : n + 1] = np.arange(1, n + 1) * modes + np.arange(1, modes)[:, None]
        re[1, n + 1 :] = np.arange(1, n + 1) * modes
        self.cols = np.repeat(re, 2, axis=1)
        self.cols[:, 1::2] += np.where(re >= 0, (n + 1) * modes, 0)
        self.size = 2 * (n + 1) * modes

    @cached_property
    def tangent(self):
        """T0: orthonormal columns (packed size, 4n+3) spanning the tangent
        of the closed-form family (y0, v, w, a) at (y0, 0, u, 0), the
        derivatives of its coefficients along (y0, Re v, Im v, Re w, Im w,
        Re a, Im a); None for M < 2, where no mode holds the a-directions.
        They reach modes 0-2 alone: d c[0, 0] = i dy0 + 2 Re(conj(u)^T A
        dw), d c[1:, 0] = dv, d c[0, 1] = 2 conj(dv)^T A u + 2 (u*Au) da,
        d c[1:, 1] = dw and d c[1:, 2] = u da."""
        n, M, A, u = self.n, self.M, self.A, self.u
        if M < 2:
            return None
        unit = np.concatenate([np.eye(n), 1j * np.eye(n)])  # Re, then Im directions
        e = np.array([1.0, 1j])
        beta = u.conj() @ A
        v, w = slice(1, 2 * n + 1), slice(2 * n + 1, 4 * n + 1)
        T = np.zeros((4 * n + 3, n + 1, M + 1), dtype=complex)
        T[0, 0, 0] = 1j
        T[v, 1:, 0] = unit
        T[v, 0, 1] = 2.0 * (unit.conj() @ (A @ u))
        T[w, 0, 0] = 2.0 * (unit @ beta).real
        T[w, 1:, 1] = unit
        T[-2:, 0, 1] = 2.0 * (beta @ u).real * e
        T[-2:, 1:, 2] = e[:, None] * u
        T = T.reshape(4 * n + 3, -1)  # packed as _DiscSystem.pack packs
        return np.linalg.qr(np.concatenate([T.real, T.imag], axis=1).T)[0]

    @cached_property
    def functions(self):
        """The boundary functions that J0 reads (_BoundaryFunctions) on
        the N-grid, in closed form: those of the pole-0 disc at eps = 0,
        with the constants of _pole_zero_blocks (phi = -beta_n, lam =
        1 / |beta_n|, P = 0, Q[1:, 1:] = -A^T)."""
        n, N, A = self.n, self.N, self.A
        zeta = circle_nodes(N)
        beta = self.u.conj() @ A
        lam = 1.0 / abs(beta[-1])
        grad = np.empty((n + 1, N), dtype=complex)
        grad[0] = 0.5
        grad[1:] = -beta[:, None] * zeta.conj()
        ratio_q = np.zeros((n + 1, N), dtype=complex)
        ratio_q[1:] = A[:, -1, None] / beta[-1] * zeta
        lift_q = np.zeros((n, n + 1, N), dtype=complex)
        lift_q[1:, 1:] = -lam * A.T[:-1, :, None] * zeta
        return _BoundaryFunctions(
            grad=grad,
            ratio_p=np.zeros((n + 1, N), dtype=complex),
            ratio_q=ratio_q,
            lift_p=np.zeros((n, n + 1, N), dtype=complex),
            lift_q=lift_q,
            lift_g=lam * zeta * grad[:n],
        )

    def rows(self, c):
        """Block rows (M + 1, 2n+2, m) of the residual rows c (rows, m)."""
        n, N, M, half = self.n, self.N, self.M, self.N // 2
        out = np.zeros((M + 1, 2 * n + 2, c.shape[1]))
        spec = self.weight * np.fft.rfft(c[:N], axis=0)[: M + 1]
        out[:, 0], out[:, 1] = spec.real, -spec.imag
        for part in (0, 1):  # Re, then Im of the negative modes
            neg = c[N + part * n * half : N + (part + 1) * n * half].reshape(n, half, -1)
            out[2:, 2 + part] = neg[0, half - 1 : half - M : -1]  # mode 1 - p
            out[1:, 4 + part :: 2] = neg[1:, half - 1 : half - M - 1 : -1].swapaxes(0, 1)  # mode -p
        return out

    def scatter(self, z):
        """Packed unknowns (packed size, m) of the block columns z (M + 1, 4n+2, m)."""
        out = np.empty((self.size, z.shape[-1]))
        real = self.cols >= 0
        out[self.cols[real]] = z[real]
        return out

    def solve(self, c):
        """J0^+ c for residual rows c (rows, m)."""
        return self.scatter(self.inv @ self.rows(c))


def _pole_zero_chord(system, coeffs):
    """Chord solver c -> s of J0, the eps = 0 linearization at the pole-0
    disc that coeffs hold (_PoleZero, kept as system.j0), or None for
    another start.

    Its steps lie off J0's null space, the family tangent T0
    (_PoleZero.tangent).  The constraint rows C go by a step in T0: s =
    J0^+ c + T0 y with y = (C T0)^+ (c_C - C J0^+ c), so J0 s is
    unchanged and the constraint rows hold.
    """
    A = system.m.base.A
    u = coeffs[1:, 1]
    rest = coeffs.copy()
    rest[0, 0] = rest[1:, 1] = 0.0
    quad = np.vdot(u, A @ u).real
    if np.any(rest) or not abs(coeffs[0, 0].real - quad) <= 1e-13 * abs(quad):
        return None
    j0 = system.j0 = _PoleZero(A, u, system.cfg.N, system.cfg.M)

    def solve_j0(c):
        return j0.solve(c[:, None])[:, 0]

    C = system.constraint_rows
    if not C.size:
        return solve_j0
    T0 = j0.tangent
    if T0 is None:
        return None
    correct = np.linalg.pinv(C @ T0, rcond=_RCOND)
    lift_end = system.cfg.N * (system.n + 1)  # the constraint rows follow

    def solve(c):
        s = solve_j0(c)
        return s + T0 @ (correct @ (c[lift_end:] - C @ s))

    return solve


def solve_glued_disc(m, coeffs, cfg=None, constraint=None):
    """Newton-continue a stationary disc onto the perturbed hypersurface m.

    coeffs is the start, truncated holomorphic coefficients (n+1, M+1) on
    m itself.  constraint = (read, target) appends the real equations
    read(coeffs) = target, read real-linear in the coefficient matrix; a
    pin is such a read (DiscFrame.constraint).  The disc is returned in
    the identity frame, so its reads are those of coeffs.  At epsilon = 0
    an exact disc returns unchanged with zero iterations.
    """
    m = _as_perturbed(m)
    cfg = cfg or SolveConfig()
    if isinstance(coeffs, DiscParams):
        raise InvalidInputError(
            "solve_glued_disc takes a coefficient array; a DiscParams start is"
            " solved by solve_with_homotopy"
        )
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (m.n + 1, cfg.M + 1):
        raise InvalidInputError(f"bad coefficient shape {coeffs.shape}")
    system = _DiscSystem(m, cfg, constraint=constraint)
    x = x0 = system.pack(coeffs)
    r = r0 = system.residual(x)
    history = [system.sup_norm(r)]
    # the pole-0 disc's start takes J0's chord first (_pole_zero_chord)
    solve_chord = _pole_zero_chord(system, coeffs) if history[-1] >= cfg.tol else None
    pole_zero = solve_chord is not None
    linearizations = int(pole_zero)
    chord = pole_zero  # the last linearization is reused while it contracts
    while history[-1] >= cfg.tol:
        if chord:
            x_try = x + solve_chord(-r)
            try:
                r_try = system.residual(x_try)
                sup = system.sup_norm(r_try)
            except LiftConstructionError:
                sup = np.inf
            if sup <= _CHORD_CONTRACTION * history[-1] or sup < cfg.tol:
                x, r = x_try, r_try
                history.append(sup)
                continue
            chord = False
        if linearizations >= cfg.max_iter:
            raise NoConvergenceError(
                f"no convergence after {linearizations} linearizations and"
                f" {len(history) - 1} steps (residual {history[-1]:.3e})",
                residual_history=history,
            )
        if linearizations == pole_zero:
            # the first exact linearization, at the start: J0's chord, if it
            # ran, stalled, and its steps are dropped
            x, r, history = x0, r0, history[:1]
        step, solve_chord = _svd_steps(system.jacobian(x), -r)
        linearizations += 1
        t = 1.0
        cur = np.linalg.norm(r)
        while True:
            try:
                r_new = system.residual(x + t * step)
                ok = np.linalg.norm(r_new) < cur * (1.0 - 1e-4 * t) or system.sup_norm(
                    r_new
                ) < cfg.tol
            except LiftConstructionError:
                ok = False
                r_new = None
            if ok:
                break
            t *= 0.5
            if t < _DAMPING_MIN:
                if r_new is None:
                    raise LiftConstructionError(
                        "no regular lift along the Newton path: phi = zeta * (d rho / d z_n) o h"
                        " vanished or wound around 0"
                    )
                raise NoConvergenceError(
                    f"damping stalled at residual {history[-1]:.3e}",
                    residual_history=history,
                )
        chord = t == 1.0
        x = x + t * step
        r = r_new
        history.append(system.sup_norm(r))
    # every accepted step's residual is the last one evaluated, so its
    # lift is that of the returned coefficients
    lift = system.lift
    defects = lift.defects
    if np.max(defects) > 10.0 * cfg.tol:
        # the residual converged: name the component and its weight
        j = int(np.argmax(defects))
        share = np.linalg.norm(lift.spec[j]) / np.linalg.norm(lift.spec)
        raise NoConvergenceError(
            f"stationarity defect {defects[j]:.3e} above tolerance in component {j} of the"
            f" lift, which carries {share:.3e} of its l2 norm",
            residual_history=history,
        )
    sol = GluedDisc(
        coeffs=system.unpack(x),
        lam=lift.lam,
        config=cfg,
        frame=DiscFrame.identity(m.n),
        pin_center=None,
        lift_defects=defects,
        linearizations=linearizations,
        residual_history=history,
    )
    sol._solved = (None, system)
    return sol


def solve_with_homotopy(m, start, cfg=None, pin_center=None, constraint=None):
    """solve_glued_disc continued in epsilon: one step, and one retry through eps / 2.

    start is a closed-form disc (DiscParams) of the base quadric, solved
    in its normalized frame (DiscFrame): on Phi(M), from the centered
    disc with pole 0, which solves eps = 0 exactly at every M.  The pin
    h(0) = pin_center and constraint = (read, target) of h become reads
    of g (DiscFrame.constraint), and the returned disc carries the frame,
    so its reads map back to M.  A pin at which no disc of the quadric is
    centered (exists_disc_centered) is refused before any stage.  Without
    a constraint the disc hands its last system, lift and J0 to
    family_dimension (GluedDisc._solved).

    Continuation needs a start that solves the eps = 0 problem (E. L.
    Allgower and K. Georg, Introduction to Numerical Continuation
    Methods, 1990); the framed start does by construction, so _continue
    takes one step to eps and, where that stalls, retries through eps / 2.
    A refusal names its cause and the knob (_refusal).
    """
    if not isinstance(start, DiscParams):
        raise InvalidInputError(
            f"solve_with_homotopy takes a DiscParams start, got {type(start).__name__}"
        )
    given, m = m, _as_perturbed(m)
    cfg = cfg or SolveConfig()
    centered = None if pin_center is None else exists_disc_centered(m.base, pin_center)
    if centered is not None and not centered.exists:
        pin = ", ".join(f"{z:.6g}" for z in np.asarray(pin_center, dtype=complex))
        sign = ">" if centered.case == "positive-definite" else "<"
        raise InvalidInputError(
            f"no stationary disc is centered at the pin ({pin}): A is {centered.case}, so a"
            f" center needs r {sign} 0, and r reads {m.base.eval_r(pin_center):.6g} there;"
            " choose another center (--p0)"
        )
    frame, coeffs = DiscFrame.normalized(m.base, start, cfg.M)
    surface = m.in_frame(frame.phi)
    try:
        sol = _continue(surface, coeffs, cfg, frame.constraint(pin_center, constraint))
    except NoConvergenceError as err:
        detail = _refusal(err, surface, start, frame, coeffs, cfg)
        raise NoConvergenceError(detail, residual_history=err.residual_history)
    except LiftConstructionError as err:
        raise LiftConstructionError(_refusal(err, surface, start, frame, coeffs, cfg))
    out = replace(sol, frame=frame, pin_center=pin_center)
    if constraint is None:
        out._solved = (given, sol._solved[1])
    return out


def _continue(m, coeffs, cfg, constraint):
    """solve_glued_disc on m from coeffs, which solve eps = 0: one step to
    eps and, where that stalls, a retry from coeffs through eps / 2.  A
    step whose residual converged but whose lift is refused is no stall,
    and is not retried."""
    if m.epsilon != 0.0:
        try:
            return solve_glued_disc(m, coeffs, cfg, constraint)
        except NoConvergenceError as err:
            if err.residual_history[-1] < cfg.tol:
                raise
        coeffs = solve_glued_disc(m.with_epsilon(0.5 * m.epsilon), coeffs, cfg, constraint).coeffs
    return solve_glued_disc(m, coeffs, cfg, constraint)


def _refusal(err, surface, start, frame, coeffs, cfg):
    """The message of err, a refused solve's error on Phi(M), with its cause and knob.

    The framed start coeffs is the pole-0 disc (u*Au, u zeta) whatever a
    is, and its lift divides by phi = -(conj(u)^T A)_n: where it misses
    tol at eps = 0, the knob is the coordinate order.  Otherwise no
    regular lift is the frame's domain limit (the knobs eps and |a|), a
    residual below tol with a refused lift is the lift's defect (err names
    its component and that component's share of the lift), and a stall at
    eps > 0 the discretization floor (N, M and eps).
    """
    system = _DiscSystem(surface.base, cfg)  # Phi(M) at eps = 0
    try:
        miss = system.sup_norm(system.residual(system.pack(coeffs)))
    except LiftConstructionError:
        miss = np.inf
    if miss >= cfg.tol:
        beta = coeffs[1:, 1].conj() @ surface.base.A
        reached = "no regular lift" if miss == np.inf else f"residual {miss:.3e}"
        return (
            f"{err}; the framed start misses tol at eps = 0 ({reached}): its lift divides by"
            f" (conj(u)^T A)_n, and |(conj(u)^T A)_n| / |conj(u)^T A| reads"
            f" {abs(beta[-1]) / np.linalg.norm(beta):.3e} for u = w/|w|: order the"
            " coordinates so that the last one carries more of conj(u)^T A"
        )
    if isinstance(err, LiftConstructionError):
        g = _boundary_samples(coeffs, cfg.N).T
        size = np.abs(surface.eval_rho_many(g) - surface.base.eval_r_many(g)).max()
        return (
            f"{err}; in the normalized frame of the pole |a| = {abs(start.a):.3g} the"
            f" perturbation eps*c^2*sup|s o Phi^-1 o g| reads {size:.3e}"
            f" (eps = {surface.epsilon:.3g}, c^2 = {frame.phi.c2:.3g}): lower eps or |a|"
        )
    reached = err.residual_history[-1]
    if reached < cfg.tol:
        return (
            f"{err}; the residual converged to {reached:.3e}, below tol, so no stall was"
            " retried: the lift's defect, not the grid, refuses the disc"
        )
    if surface.epsilon == 0.0:
        return str(err)
    return (
        f"{err}; every schedule stalls above tol at eps = {surface.epsilon:.3g} on the"
        f" N={cfg.N}, M={cfg.M} grid: raise M (and N), or lower eps"
    )


def _frame_system(m, sol, cfg):
    """The system at sol in its frame, stacking a pinned sol's pin rows
    under the residual's; cfg may change N (off the solve grid), not M."""
    cfg = cfg or sol.config
    if cfg.M != sol.config.M:
        raise InvalidInputError(f"solution has M={sol.config.M}, configuration M={cfg.M}")
    surface = _as_perturbed(m).in_frame(sol.frame.phi)
    return _DiscSystem(surface, cfg, constraint=sol.frame.constraint(sol.pin_center))


def _solved_system(m, sol, cfg):
    """The system at sol in its frame: the solve's hand-over
    (GluedDisc._solved), with its lift at sol and its J0, read once and
    cleared, where m is the surface the solve was given and cfg is None or
    the solve's; otherwise _frame_system, with neither."""
    given, system = sol._solved or (None, None)
    sol._solved = None  # a kept disc keeps no system
    if given is not m or (cfg is not None and cfg != sol.config):
        system = _frame_system(m, sol, cfg)
    return system


def _null_count(sv):
    """Number of singular values below _SV_CUT times the largest, with a
    spectral gap of at least _GAP_MIN across the cut; without the gap a
    DimensionAmbiguousError carries the spectrum."""
    cut = _SV_CUT * sv[0]
    null = int(np.sum(sv < cut))
    if null == 0:
        raise DimensionAmbiguousError("no null directions found", singular_values=sv)
    kept_min = sv[sv >= cut].min()
    dropped_max = sv[sv < cut].max()
    if dropped_max > 0 and kept_min / dropped_max < _GAP_MIN:
        raise DimensionAmbiguousError(
            f"no clear spectral gap ({kept_min:.3e} over {dropped_max:.3e})",
            singular_values=sv,
        )
    return null


def _node_norms(v):
    """The l2 norm over the leading axes at each node of samples (..., N)."""
    return np.linalg.norm(v.reshape(-1, v.shape[-1]), axis=0)


def _sample_bound(f, f0, N):
    """B = sqrt(N a^2 + b^2) >= |J - J0|_2, from the boundary functions f
    that J reads at a point and f0 that J0 reads (_PoleZero.functions),
    on the N-grid; D below is f less f0, and each max runs over the nodes.

    A unit direction's samples dh have |dh|_grid = sqrt(N) (Parseval).
    J - J0 moves the rho rows by 2 Re(D grad . dh), so by at most
    a sqrt(N) with a = 2 max|D grad|.  It moves the lifted rows by the
    FFT / N (norm 1 / sqrt(N)) of D(d log lam lift_g + lift_p dh +
    lift_q conj(dh)), where d log lam = -T(Im ratio) - Re ratio is at
    most sqrt(2) |ratio| (the Hilbert transform T has norm <= 1) and
    D(d log lam lift_g) = d log lam D lift_g + D(d log lam) lift_g0; so
    by at most b = sqrt(2) max|D lift_g| max(|ratio_p| + |ratio_q|) +
    sqrt(2) max|lift_g0| max(|D ratio_p| + |D ratio_q|) +
    max(|D lift_p|_F + |D lift_q|_F).
    """

    def dev(name):
        return _node_norms(getattr(f, name) - getattr(f0, name))

    a = 2.0 * dev("grad").max()
    b = (
        np.sqrt(2.0) * dev("lift_g").max() * (_node_norms(f.ratio_p) + _node_norms(f.ratio_q)).max()
        + np.sqrt(2.0) * _node_norms(f0.lift_g).max() * (dev("ratio_p") + dev("ratio_q")).max()
        + (dev("lift_p") + dev("lift_q")).max()
    )
    return np.sqrt(N * a**2 + b**2)


def _certified_dimension(system, j0, source):
    """family_dimension's count k and its bounds (kept_lower, null_upper)
    on sigma_{K-k} and sigma_{K-k+1} of J at a point x, from j0, J0's
    blocks at a pole-0 disc (_PoleZero; family_dimension's is the framed
    start's); None where they do not prove that _null_count of J's
    spectrum returns k.  source is the boundary functions at x
    (_BoundaryFunctions), and then it reads no dense J (the sample tier),
    or the dense J at x (the eta tier).

    T0 is j0's tangent (the family's), null(J0) when J0 keeps K - (4n+3)
    values, and s the least kept value, so |J0 v| >= s |v| off T0.  The
    sample tier takes B >= |J - J0|_2 (_sample_bound): for v off T0,
    |J v| >= (s - B) |v| (Weyl).  The eta tier takes J_sel = J0 + E, the
    rows of J that J0's blocks hold, with sigma_i(J_sel) <= sigma_i(J)
    and |J0^+ y| <= |y| / s: with eta = |J0^+ E|_F, for v off T0, |J v| >=
    s |J0^+ J_sel v| >= s (1 - eta) |v|; J0^+ J_sel = J0^+ J, and J0^+ J0 =
    I - T0 T0^T projects off null(J0) = T0, so eta = |J0^+ J - (I - T0
    T0^T)|_F, from J0's one solve.  Write eta = B / s in the sample tier.
    With the constraint rows C (g = sigma_min(C T0), h = |C|_2), on {T0 a
    + w: a in row(C T0), w off T0}, |J v| >= max(s (|w| - eta), g |a| - h
    |w|), least where the two meet on |a|^2 + |w|^2 = 1.  By
    Courant-Fischer either is a kept_lower <= sigma_{K-k}, with k = 4n+3 -
    rank(C T0) (G. W. Stewart and J. Sun, Matrix Perturbation Theory,
    1990).  J0's chord from T0, T <- T - J0^+ J T (J0^+ reads the rows
    its blocks hold), restricted to null(C T), spans k directions with
    null_upper = |J T|_2 >= sigma_{K-k+1}; it runs while null_upper
    shrinks by _CHORD_CONTRACTION.  The sample tier takes J T from
    J-vector products (_DiscSystem.product), and brackets sigma_1 within
    B of [J0; C]'s, between the largest kept value and its hypot with h;
    the eta tier brackets it by the largest column norm and |J|_F.  The
    tests below put _null_count's cut and gap where the bounds say.
    """
    T0 = j0.tangent
    if T0 is None or j0.kept.size != system.size - T0.shape[1]:
        return None
    C = system.constraint_rows
    h = np.sqrt(np.linalg.eigvalsh(C @ C.T)[-1]) if C.size else 0.0
    s = j0.kept.min()
    if isinstance(source, _BoundaryFunctions):
        B = _sample_bound(source, j0.functions, system.cfg.N)
        eta, top = B / s, j0.kept.max()
        sigma_1 = (top - B, np.hypot(top, h) + B)
        apply = partial(system.product, source)
    else:
        J = source
        # J0^+ E = J0^+ J - (I - T0 T0^T); a sum of squares, as
        # np.linalg.norm's BLAS dot can start threads
        eta = np.sqrt(np.square(j0.solve(J) - np.eye(system.size) + T0 @ T0.T).sum())
        col = np.einsum("ij,ij->j", J, J)  # squared column norms
        sigma_1 = (np.sqrt(col.max()), np.sqrt(col.sum()))
        apply = partial(np.matmul, J)
    if not eta < 1.0:
        return None
    # with no C, g = inf and h = 0: the least of the two is at a = 0, s (1 - eta)
    g = np.linalg.svd(C @ T0, compute_uv=False)[-1] if C.size else np.inf
    meet = np.arctan2(g, s + h) + np.arcsin(s * eta / np.hypot(s + h, g))
    lower = s * (np.sin(meet) - eta)
    if not lower >= _SV_CUT * sigma_1[1]:
        return None
    T, JT, upper = T0, apply(T0), np.inf
    while True:
        T = np.linalg.qr(T - j0.solve(JT))[0]  # J0's chord: J0^+ J_sel T = J0^+ (J T)
        JT = apply(T)
        null = JT @ np.linalg.svd(C @ T)[2][C.shape[0] :].T if C.size else JT  # J on null(C T)
        last, upper = upper, np.linalg.svd(null, compute_uv=False)[0]
        if upper < _SV_CUT * sigma_1[0] and lower >= _GAP_MIN * upper:
            return {"dim": null.shape[1], "gap": (float(lower), float(upper))}
        if not upper <= _CHORD_CONTRACTION * last:
            return None


def family_dimension(m, sol, cfg=None):
    """Numerical null-space dimension of the linearization J at sol, as
    _null_count counts J's singular values, and the gap across its cut:
    {"dim": k, "gap": (kept_lower, null_upper)}.

    Three tiers answer in turn, bounds on sigma_{K-k} and sigma_{K-k+1}
    from J0's blocks at the pole-0 disc of the framed start's direction
    u (DiscFrame.u; the solution's velocity for a bare solve), factored
    once (_certified_dimension): the sample tier, with no dense J; the
    eta tier, on the dense J built from the sample tier's boundary
    functions; and where neither proves anything, one values-only SVD of
    J, with the two values themselves.

    The system, its lift at sol and its J0 come from the solve's
    hand-over where it applies, and are built here otherwise
    (_solved_system); both routes hold the same values, so the answer is
    the same to the bit.
    """
    system = _solved_system(m, sol, cfg)
    x = system.pack(sol.coeffs)
    f = system.boundary_functions(x, system.lift)
    j0 = system.j0
    if j0 is None:
        u = sol.coeffs[1:, 1] if sol.frame.u is None else sol.frame.u
        j0 = _PoleZero(system.m.base.A, u, system.cfg.N, system.cfg.M)
    certified = _certified_dimension(system, j0, f)
    if certified is not None:
        return certified
    J = system.jacobian(x, f)
    certified = _certified_dimension(system, j0, J)
    if certified is not None:
        return certified
    sv = np.linalg.svd(J, compute_uv=False)
    k = _null_count(sv)
    return {"dim": k, "gap": (float(sv[-k - 1]), float(sv[-k]))}


def family_tangent_basis(m, sol, cfg=None):
    """Orthonormal null-space basis of the linearization J at sol, of the
    dimension that family_dimension counts, and the system at sol, which
    with its lift comes from the solve's hand-over as family_dimension's
    does (_solved_system)."""
    system = _solved_system(m, sol, cfg)
    x = system.pack(sol.coeffs)
    J = system.jacobian(x, system.boundary_functions(x, system.lift))
    _U, S, Vt = np.linalg.svd(np.linalg.qr(J, mode="r"))  # J's S and V, Q never formed
    return Vt[-_null_count(S) :].T, system


# ---------------------------------------------------------------------------
# Fixed-center maps
# ---------------------------------------------------------------------------


def _center_disc_params(q, p0, a, direction):
    """Centered DiscParams with conj(w)^T A w / (1-|a|^2) = Re p0."""
    x0 = p0.real
    quad = float(np.real(direction.conj() @ q.A @ direction))
    if quad * x0 <= 0:
        raise InvalidInputError("direction has the wrong sign for this center")
    w = direction * np.sqrt(x0 * (1.0 - abs(a) ** 2) / quad)
    return DiscParams(y0=p0.imag, v=np.zeros(q.n, dtype=complex), w=w, a=a)


def _center_pin(n, p0):
    """h(0) = (p0, 0), the center of the fixed-center family."""
    pin = np.zeros(n + 1, dtype=complex)
    pin[0] = p0
    return pin


def _parts(z):
    """Re and Im of complex vectors stacked on leading axes."""
    return np.concatenate([z.real, z.imag], axis=-1)


# A read takes coefficient arrays stacked on leading axes.  _endpoint and
# _velocity also take a DiscFrame, and then read h through it less the
# constant of Phi^-1 (DiscFrame.constraint puts that into the target).


def _endpoint(coeffs, frame=None):
    """Im z0, Re z_a and Im z_a of h(1): the endpoint read."""
    end = frame.h_at(coeffs, 1.0) if frame else coeffs.sum(axis=-1)
    return np.concatenate([end[..., :1].imag, end[..., 1:].real, end[..., 1:].imag], axis=-1)


def _velocity(coeffs, frame=None):
    """Re and Im of h'(0): the velocity read."""
    return _parts(frame.h_slope(coeffs, 0.0) if frame else coeffs[..., 1])


@dataclass(frozen=True)
class CenterMapJacobians:
    J_endpoint: np.ndarray
    J_velocity: np.ndarray
    sv_endpoint: np.ndarray
    sv_velocity: np.ndarray

    @property
    def endpoint_invertible(self):
        return bool(self.sv_endpoint[-1] > 1e-10 * max(1.0, self.sv_endpoint[0]))

    @property
    def velocity_injective(self):
        return bool(self.sv_velocity[-1] > 1e-10 * max(1.0, self.sv_velocity[0]))


def center_map_jacobians(m, p0, cfg=None):
    """Jacobians of h -> (Im h0(1), h_a(1)) and h -> h'(0) on the pinned family.

    The family is continued from the closed-form disc with pole 0 whose
    direction is the exists_disc_centered witness at (p0, 0).  Both maps
    are real-linear reads of the coefficients, so each Jacobian is its
    read's rows times the tangent basis of the pinned solve's
    linearization; at epsilon = 0 that solve returns the closed-form disc
    with no Newton step.
    """
    m = _as_perturbed(m)
    q = m.base
    p0 = complex(p0)
    pin = _center_pin(q.n, p0)
    centered = exists_disc_centered(q, pin)
    if not centered.condition_star:
        raise InvalidInputError("center fails the admissibility condition")
    cfg = cfg or SolveConfig()
    params0 = _center_disc_params(q, p0, 0.0, centered.witness)
    sol = solve_with_homotopy(m, params0, cfg, pin_center=pin)
    basis, system = family_tangent_basis(m, sol, cfg)
    Je = system.rows(partial(_endpoint, frame=sol.frame)) @ basis
    Jv = system.rows(partial(_velocity, frame=sol.frame)) @ basis
    sv_e = np.linalg.svd(Je, compute_uv=False)
    sv_v = np.linalg.svd(Jv, compute_uv=False)
    return CenterMapJacobians(J_endpoint=Je, J_velocity=Jv, sv_endpoint=sv_e, sv_velocity=sv_v)


# ---------------------------------------------------------------------------
# Indicatrix sampling and jet transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndicatrixPoint:
    params: DiscParams | None
    velocity: np.ndarray | None
    residual: float
    error: str | None


INDICATRIX_A_MAX = 0.5  # indicatrix_sample draws |a| below this


def indicatrix_sample(m, p0, count, cfg=None, seed=0):
    """Velocity cloud h'(0) of the pinned disc family.

    Directions and pole parameters (|a| < INDICATRIX_A_MAX) are drawn
    from a seeded generator; incompatible directions (wrong sign of the
    Hermitian form) and failed solves are reported per point rather
    than aborting the run.
    """
    m = _as_perturbed(m)
    q = m.base
    p0 = complex(p0)
    if not satisfies_condition_star(q, p0):
        raise InvalidInputError("center fails the admissibility condition")
    rng = np.random.default_rng(seed)
    cfg = cfg or SolveConfig()
    out = []
    pin = _center_pin(q.n, p0)
    for _ in range(count):
        u = rng.normal(size=q.n) + 1j * rng.normal(size=q.n)
        u /= np.linalg.norm(u)
        a = INDICATRIX_A_MAX * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        try:
            params = _center_disc_params(q, p0, a, u)
        except InvalidInputError as err:
            out.append(IndicatrixPoint(None, None, np.nan, str(err)))
            continue
        if m.epsilon == 0.0:
            d = Disc(q, params, check=False)
            out.append(IndicatrixPoint(params, d.velocity(), 0.0, None))
            continue
        try:
            sol = solve_with_homotopy(m, params, cfg, pin_center=pin)
            out.append(IndicatrixPoint(params, sol.velocity(), sol.residual_sup, None))
        except (NoConvergenceError, LiftConstructionError) as err:
            out.append(IndicatrixPoint(params, None, np.nan, str(err)))
    return out


def _disc_through_solution(m, p0, params, z, cfg):
    """Pinned disc whose endpoint matches z, continued from params, the
    closed-form disc through z (exact at epsilon = 0), and its velocity."""
    if m.epsilon == 0.0:
        return params, Disc(m.base, params, check=False).velocity()
    target = _endpoint(z[:, None])  # the constant disc z ends at z
    sol = solve_with_homotopy(
        m, params, cfg, pin_center=_center_pin(m.n, p0), constraint=(_endpoint, target)
    )
    return sol, sol.velocity()


def _invert_velocity(m, p0, u, cfg, tol_scale):
    """Pinned disc with h'(0) = u, and its endpoint; inverts the velocity chart."""
    q = m.base
    u = np.asarray(u, dtype=complex)
    x0 = p0.real
    w = u[1:]
    if np.linalg.norm(w) < 1e-12:
        raise TargetInversionError("velocity has vanishing tangential part")
    a = u[0] / (2.0 * x0)
    if abs(a) >= 1.0 - 1e-10:
        raise TargetInversionError(f"velocity needs |a| = {abs(a)} outside the family")
    quad = float(np.real(w.conj() @ q.A @ w))
    mism = abs(quad / (1.0 - abs(a) ** 2) - x0)
    if m.epsilon == 0.0:
        if mism > 1e-8 * max(1.0, abs(x0)):
            raise TargetInversionError(
                f"velocity is off the indicatrix by {mism:.3e}; cannot invert"
            )
        params = DiscParams(y0=p0.imag, v=np.zeros(q.n), w=w, a=a)
        return params, Disc(q, params, check=False).at(np.array(1.0 + 0.0j))
    try:
        seed = _center_disc_params(q, p0, a, w)
    except InvalidInputError:
        # no centered disc of the eps = 0 family starts the homotopy
        raise TargetInversionError(
            f"velocity has w*Aw = {quad:.3e}, the wrong sign for Re p0 = {x0:.6g};"
            " no disc of the family has it"
        )
    target = np.concatenate([u.real, u.imag])
    try:
        sol = solve_with_homotopy(
            m, seed, cfg, pin_center=_center_pin(q.n, p0), constraint=(_velocity, target)
        )
    except (NoConvergenceError, LiftConstructionError) as err:
        raise TargetInversionError(
            f"velocity inversion failed ({mism:.3e} off the eps = 0 indicatrix): {err}"
        )
    err = np.linalg.norm(sol.velocity() - u)
    if err > tol_scale * max(1.0, np.linalg.norm(u)):
        raise TargetInversionError(f"velocity missed by {err:.3e}")
    return sol, sol.endpoint()


def transport_jet(m_src, m_tgt, p0, dF, z, p0_target=None, cfg=None):
    """Move a boundary point through the one-jet of a biholomorphism.

    Finds the source disc through z centered at (p0, 0), pushes its
    velocity with dF, inverts the velocity chart of the target family
    centered at (p0_target, 0), and returns the endpoint of the
    resulting disc.  With identity data this is the identity map.  An
    inadmissible target center is refused before any solve.
    """
    m_src = _as_perturbed(m_src)
    m_tgt = _as_perturbed(m_tgt)
    p0 = complex(p0)
    p0t = complex(p0_target) if p0_target is not None else p0
    dF = np.asarray(dF, dtype=complex)
    if dF.shape != (m_src.n + 1, m_src.n + 1):
        raise InvalidInputError("dF must be (n+1) x (n+1)")
    z = np.asarray(z, dtype=complex)
    params = disc_through(m_src.base, p0, z)  # refuses the source center and z
    if not satisfies_condition_star(m_tgt.base, p0t):
        raise InvalidInputError("target center fails the admissibility condition")
    cfg = cfg or SolveConfig()
    _src, u = _disc_through_solution(m_src, p0, params, z, cfg)
    tol_scale = max(1e-8, 10.0 * abs(m_tgt.epsilon))
    _tgt, endpoint = _invert_velocity(m_tgt, p0t, dF @ u, cfg, tol_scale)
    return endpoint
