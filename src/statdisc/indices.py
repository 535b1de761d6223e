"""Boundary matrix symbols and their factorization invariants.

The conormal projectivization of the hyperquadric is cut out by 2n+1
real equations; along a projectivized lift f their conjugate-gradient
matrix G(zeta) induces the symbol -conj(G)^{-1} G whose Birkhoff
factorization exponents (partial indices) and determinant winding
(Maslov index) control the deformation theory of the disc.

Partial indices are computed exactly, from a matrix Laurent polynomial
with the symbol's indices, by a lowest-degree column reduction that
finishes once the per-column bottom degrees sum to the determinant's
order at the origin.  Only a form whose determinant is a monomial is
factored.  A disc-model symbol (`build_B`, either source) carries
one: the same symbol along the centered disc with pole 0 and
direction w/|w|, which a disc automorphism, a Heisenberg translation
and a dilation of Q relate to the disc with pole a (derivation at
`build_B`).  A symbol without that form is refused.
The Maslov index, the determinant winding of the samples, is always
checked against that form's determinant order, which is the index
sum.  That check is the limit near the circle.  The closed form passes
it up to |a| = 1 - 1e-10.  For the gradient source the 256-point
winding misses the pole from about |a| = 0.95 (n >= 2; 0.9 at n = 6)
and from 0.999 at every n; a larger grid resolves it (4096 points at
0.99, n = 3).
A truncated block Toeplitz kernel count serves as an independent test
oracle, never as the primary path.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary_analysis import GRID_DEFAULT, circle_nodes, validate_grid, winding_number
from .disc import DiscParams, LiftParams, projectivize_lift
from .errors import (
    ApproximationError,
    FactorizationError,
    InvalidInputError,
    InvalidParamsError,
    ReductionMismatchError,
    SymbolSingularError,
)

DET_MIN = 1e-10
SNAP_REL = 1e-11
COLUMN_SNAP_REL = 1e-10  # per column, in the reduction steps
ORACLE_SV_TOL = 1e-6
ORACLE_MAX_SCAN = 64  # index levels the Toeplitz oracle scans each way
CHAIN_POINTWISE_TOL = 1e-8  # replayed chain against the closed-form symbol


# ---------------------------------------------------------------------------
# Laurent polynomial matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentMatrix:
    """Matrix Laurent polynomial sum_m C_m zeta^m, m = lo .. lo+K-1.

    coeffs has shape (K, s, s); it is a read-only copy of the input.
    """

    coeffs: np.ndarray
    lo: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise InvalidInputError(f"bad Laurent coefficient shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "lo", int(self.lo))

    @property
    def size(self):
        return self.coeffs.shape[1]

    def eval(self, zeta):
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        out = np.zeros(zeta.shape + (self.size, self.size), dtype=complex)
        for k in range(self.coeffs.shape[0] - 1, -1, -1):
            out *= zeta[..., None, None]
            out += self.coeffs[k]
        return out * (zeta[..., None, None] ** self.lo)

    @cached_property
    def _det_roots(self):
        """_extract_det_roots of this form, (coeffs, lo, K): the form is
        read-only, so its determinant order is taken once (a refusal is
        not cached and recurs on every read)."""
        return _extract_det_roots(self.coeffs, self.lo)


def _trim(coeffs, lo):
    mags = np.abs(coeffs).max(axis=(1, 2))
    scale = mags.max(initial=0.0)
    if scale == 0.0:
        return np.zeros((1,) + coeffs.shape[1:], dtype=complex), 0
    keep = np.nonzero(mags > SNAP_REL * scale)[0]
    return np.ascontiguousarray(coeffs[keep[0] : keep[-1] + 1]), lo + int(keep[0])


def _snap_columns(coeffs):
    """Zero out sub-threshold entries, per column, in place.

    The reduction's degree bookkeeping reads lowest nonzero coefficients;
    roundoff spread by the constant mixes must not masquerade as one.
    """
    scale = np.abs(coeffs).max(axis=(0, 1))  # per column j
    mask = np.abs(coeffs) < COLUMN_SNAP_REL * scale[None, None, :]
    coeffs[mask] = 0.0
    return coeffs


def _reduced_form(samples):
    """Laurent form C_0 + C_1 zeta + C_2 zeta^2 of pole-0 samples (N, s, s).

    The pole-0 symbol is a polynomial of degree <= 2: mass above 1e-12 of
    the total in any other mode (modes 3 .. N-1 of the FFT, the negative
    ones included) raises ApproximationError.
    """
    c = np.fft.fft(samples, axis=0) / samples.shape[0]
    total = np.linalg.norm(c)
    if total > 0 and np.linalg.norm(c[3:]) > 1e-12 * total:
        raise ApproximationError("samples carry mass outside the Laurent envelope")
    return LaurentMatrix(*_trim(c[:3], 0))


def laurent_det(lm):
    """Determinant of a Laurent matrix, again as (coeffs, lo)."""
    s = lm.size
    span = s * (lm.coeffs.shape[0] - 1)
    N = 1
    while N < span + 2:
        N *= 2
    N = max(N, 8)
    zeta = circle_nodes(N)
    vals = np.linalg.det(lm.eval(zeta))
    c = np.fft.fft(vals / (zeta ** (s * lm.lo)), axis=0) / N
    # a polynomial of degree <= span < N: coefficient d sits in bin d mod N
    coeffs = np.array([c[d % N] for d in range(span + 1)])
    return coeffs, s * lm.lo


# ---------------------------------------------------------------------------
# Matrix symbols on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixSymbol:
    """Matrix-valued function on the circle grid.

    samples has shape (N, s, s).  reduced is a Laurent form with the
    symbol's partial indices, which `partial_indices` factors and
    `maslov_index` checks against; `build_B` sets it, and a symbol
    without one has an unchecked Maslov index but no partial indices.
    The samples are read-only, so their determinants are computed once.
    """

    samples: np.ndarray
    reduced: LaurentMatrix | None = None

    def __post_init__(self):
        smp = np.asarray(self.samples, dtype=complex)
        if smp.ndim != 3 or smp.shape[1] != smp.shape[2]:
            raise InvalidInputError(f"bad sample shape {smp.shape}")
        validate_grid(smp.shape[0])
        det = np.linalg.det(smp)
        if np.abs(det).min() <= DET_MIN:
            raise SymbolSingularError("symbol determinant vanishes on the grid")
        smp = smp.copy()
        smp.flags.writeable = False
        det.flags.writeable = False
        object.__setattr__(self, "samples", smp)
        object.__setattr__(self, "_det", det)

    @property
    def size(self):
        return self.samples.shape[1]

    @property
    def N(self):
        return self.samples.shape[0]

    def det_samples(self):
        return self._det


@dataclass(frozen=True)
class PartialIndices:
    """kappa_1 >= ... >= kappa_s and their sum."""

    kappa: tuple
    total: int

    @classmethod
    def from_values(cls, values):
        kappa = tuple(sorted((int(v) for v in values), reverse=True))
        return cls(kappa=kappa, total=int(sum(kappa)))


def _checked_winding(symbol, order):
    """Winding of det(symbol), which must equal order, the determinant
    order of its reduced form and so its partial index sum.  A mismatch
    means the grid missed a pole near the circle; it raises
    FactorizationError and names the grid size, the knob that resolves it.
    """
    wind = winding_number(symbol.det_samples())
    if wind != order:
        raise FactorizationError(
            f"partial index sum {order} != det winding {wind} on N={symbol.N} "
            "samples; a pole near the circle needs a larger grid"
        )
    return wind


def maslov_index(symbol):
    """Winding of det(symbol) around 0; the total index, checked against
    the determinant order of the reduced form when the symbol has one."""
    if symbol.reduced is None:
        return winding_number(symbol.det_samples())
    return _checked_winding(symbol, symbol.reduced._det_roots[2])


# ---------------------------------------------------------------------------
# Symbol constructors: conormal gradient matrix and conjugation symbol
# ---------------------------------------------------------------------------


def _gradient_rows(q, z, t):
    """G(zeta) rows at sampled (z, t): shape (N, 2n+1, 2n+1).

    Row order: [r; 2Re e_j (j=1..n-1); 2Re e_0; -2Im e_j; -2Im e_0],
    column order: [zbar_0, zbar_1..zbar_n, tbar_0, tbar_1..tbar_{n-1}],
    where e_j = (dr/dz_n) t_j - dr/dz_j.
    """
    n = q.n
    N = z.shape[0]
    s = 2 * n + 1
    A = q.A
    Abar = A.conj()
    za = z[:, 1:]
    Az = za @ A.T  # (N, n): rows A @ z_alpha
    Ln_z = Az[:, n - 1]
    G = np.zeros((N, s, s), dtype=complex)
    G[:, 0, 0] = 0.5
    G[:, 0, 1 : n + 1] = -Az
    for j in range(1, n):
        row_z = -Abar[n - 1][None, :] * t[:, j, None] + Abar[j - 1][None, :]
        G[:, j, 1 : n + 1] = row_z
        G[:, j, n + 1 + j] = -Ln_z
        G[:, n + j, 1 : n + 1] = 1j * row_z
        G[:, n + j, n + 1 + j] = 1j * Ln_z
    row0_z = -Abar[n - 1][None, :] * t[:, 0, None]
    G[:, n, 1 : n + 1] = row0_z
    G[:, n, n + 1] = -Ln_z
    G[:, 2 * n, 1 : n + 1] = 1j * row0_z
    G[:, 2 * n, n + 1] = 1j * Ln_z
    return G


def build_G(lift):
    """Conjugate-gradient matrix of the 2n+1 defining equations along the
    projectivized lift."""
    q, f = lift.quadric, lift.values
    return MatrixSymbol(samples=_gradient_rows(q, f[: q.n + 1].T, f[q.n + 1 :].T))


def _closed_form_B_samples(q, params, N):
    """The displayed conjugation symbol of the projectivized conormal
    bundle along a centered disc: entries 1, zeta^2, zeta and first-row
    rationals in (a, w, A)."""
    n, A = q.n, q.A
    a = params.a
    w = params.w
    alpha = float(np.real(w.conj() @ A @ w))
    zeta = circle_nodes(N)
    s = 2 * n + 1
    sig = 1.0 - a * zeta
    tau = 1.0 - np.conj(a) / zeta
    mod2 = sig * tau  # |1 - a zeta|^2 on the circle
    B = np.zeros((N, s, s), dtype=complex)
    B[:, 0, 0] = 1.0
    B[:, 0, 1] = 2.0 * alpha * zeta / (mod2 * tau)
    B[:, 0, 2] = -2.0 * alpha * zeta / (mod2 * sig)
    B[:, 1, 2] = zeta**2
    B[:, 2, 1] = zeta**2
    for j in range(1, n):
        B[:, 0, 2 * j + 1] = zeta * w[j - 1] / mod2
        B[:, 0, 2 * j + 2] = -np.conj(w[j - 1]) / mod2
        B[:, 2 * j + 1, 2 * j + 2] = zeta
        B[:, 2 * j + 2, 2 * j + 1] = zeta
    return B


def _gradient_B_samples(q, params, N):
    """-conj(G)^{-1} G pointwise along the projectivized lift."""
    lift = projectivize_lift(q, LiftParams(disc=params, b=1.0), N=N)
    G = build_G(lift).samples
    return -np.linalg.solve(np.conj(G), G)


SYMBOL_SOURCES = {"closed_form": _closed_form_B_samples, "gradient": _gradient_B_samples}
# at pole 0 both symbols have degree <= 2; the other 13 modes certify it
REDUCED_GRID = 16


def build_B(q, params, source="closed_form", N=None):
    """Conjugation symbol along the centered disc with parameters params.

    source "closed_form" emits the displayed matrix; source "gradient"
    computes -conj(G)^{-1} G pointwise from the defining equations.  The
    samples are those of the disc h with pole a, so the Maslov index
    reads the symbol itself.  The reduced form, for either source, is
    the same symbol along the centered disc with pole 0 and direction
    w/|w|.  Three maps of the disc lead there, none of which moves a
    partial index:

    * Reparametrization.  With psi(zeta) = (zeta + conj(a))/(1 + a zeta),
      g = h o psi has g_a = (conj(a) w + w zeta)/(1 - |a|^2) = v' + w' zeta,
      where w' = w/(1 - |a|^2) and v' = conj(a) w', and
      g_0 = i y0 + wAw (1 + |a|^2 + 2 a zeta)/(1 - |a|^2)^2.  The symbol
      is a pointwise function of the projectivized lift and
      f_g = f_h o psi, so V_g = V_h o psi.  If V_h = V+ Lambda V-, then
      V_g = (V+ o psi)(Lambda o psi)(V- o psi), and
      psi^k = zeta^k (1 + conj(a)/zeta)^k (1 + a zeta)^(-k) is a minus
      factor times zeta^k times a plus factor (Clancey-Gohberg 1981).
    * Re-centering.  The Heisenberg translation
      F(z0, z) = (z0 - 2 v'Az + v'Av', z - v') keeps r (r o F = r) and
      maps g to the disc (w'Aw' + i y0, w' zeta): centered, pole 0.  Its
      differential is constant, so conormals move by a constant matrix;
      on the projective coordinates t that is a fractional-linear map
      whose differential D(zeta) along f_g is holomorphic and
      invertible on the closed disc.  The defining equations pull back
      to real combinations of themselves, so the symbol becomes
      D V_g conj(D)^{-1}: a plus factor on the left and a minus factor
      on the right.
    * Scaling.  The dilation (z0, z) -> (c^2 z0, c z), c = 1/|w'|, keeps
      Q and multiplies conormals by a constant diagonal matrix.  It
      takes w' to w/|w|.  Without it the entries of the pole-0 form
      span 1 to |w'|^2, about 1e20 at |a| = 1 - 1e-10, and the column
      reduction fails for |a| >= 1 - 1e-6.

    At pole 0 both symbols are polynomials of degree <= 2 whose
    determinant is a monomial (its other coefficients measure below
    1e-14 of it on random models, n <= 6, up to |a| = 1 - 1e-10).  That
    is the one kind of form the factorization takes.  The reduced form
    is interpolated from REDUCED_GRID samples, and the envelope [0, 2]
    certifies it.
    """
    N = validate_grid(N or GRID_DEFAULT)
    if np.linalg.norm(params.v) != 0.0:
        raise InvalidParamsError("conjugation symbols assume a centered disc (v = 0)")
    sampled = SYMBOL_SOURCES.get(source)
    if sampled is None:
        raise InvalidInputError(f"unknown source {source!r}")
    samples = sampled(q, params, N)
    unit = params.w / np.linalg.norm(params.w)
    at_zero = sampled(q, DiscParams(y0=params.y0, v=params.v, w=unit, a=0.0), REDUCED_GRID)
    return MatrixSymbol(samples=samples, reduced=_reduced_form(at_zero))


# ---------------------------------------------------------------------------
# Exact Birkhoff factorization of Laurent matrix polynomials
# ---------------------------------------------------------------------------


def _extract_det_roots(coeffs, lo):
    """Trim a Laurent form and read its determinant order K at the origin.

    Only a form whose determinant is a monomial c zeta^K is factored, so
    there is no interior determinant zero to extract: every determinant
    coefficient but the largest must be at most 1e-8 of it, or
    FactorizationError is raised.  Returns (coeffs, lo, K) of the
    trimmed form.
    """
    lm = LaurentMatrix(*_trim(coeffs, lo))
    dcoef, dlo = laurent_det(lm)
    mags = np.abs(dcoef)
    top = int(np.argmax(mags))
    rest = np.delete(mags, top).max(initial=0.0)
    if rest >= 1e-8 * mags[top]:
        raise FactorizationError(
            f"determinant is not a monomial: a coefficient of {rest:.1e} beside the largest "
            f"{mags[top]:.1e}; only a form with a monomial determinant is factored"
        )
    return lm.coeffs, lm.lo, dlo + top


def _bottom_degrees(coeffs, lo):
    K, s, _ = coeffs.shape
    bots = np.full(s, -1, dtype=int)
    betas = np.zeros((s, s), dtype=complex)
    for j in range(s):
        col = coeffs[:, :, j]
        scale = np.abs(col).max()
        if scale == 0.0:
            raise FactorizationError("zero column in reduction")
        mags = np.abs(col).max(axis=1)
        k0 = int(np.nonzero(mags > SNAP_REL * scale)[0][0])
        bots[j] = lo + k0
        betas[:, j] = col[k0]
    return bots, betas


def birkhoff_partial_indices(lm):
    """Partial indices of a Laurent matrix polynomial, exactly.

    The determinant must be a monomial c zeta^K (see _extract_det_roots).
    Whenever the per-column bottom coefficient vectors are dependent,
    the dependency is resolved into the column of lowest bottom degree
    using only nonpositive powers of zeta (legal right-side operations),
    raising that bottom degree strictly.  The sum of bottoms is bounded
    by K, so the loop terminates with an invertible bottom matrix, and
    the bottoms are the indices: the remaining factor has
    unit-invertible values on the closed disc.
    """
    coeffs, lo, K = lm._det_roots
    coeffs = coeffs.copy()  # the reduction snaps it in place
    s = coeffs.shape[1]
    for _ in range(4 * (abs(K) + s * coeffs.shape[0] + 4)):
        coeffs, lo = _trim(_snap_columns(coeffs), lo)
        bots, betas = _bottom_degrees(coeffs, lo)
        colnorms = np.linalg.norm(betas, axis=0)
        u, sv, vh = np.linalg.svd(betas / colnorms[None, :])
        if int(bots.sum()) == K:
            # sum of bottoms = monomial degree certifies independence:
            # a dependency would push ord_0(det) above K
            if sv[-1] < 1e-10 * sv[0]:
                raise FactorizationError("degenerate bottom matrix at full degree sum")
            return np.sort(bots)[::-1]
        if int(bots.sum()) > K:
            raise FactorizationError(
                f"bottom degrees overshoot: sum {bots.sum()} vs det degree {K}"
            )
        if sv[-1] > 1e-6 * sv[0]:
            raise FactorizationError(
                "bottom matrix numerically independent below the degree sum"
            )
        x = np.conj(vh[-1]) / colnorms
        participants = np.nonzero(np.abs(x) > 1e-10 * np.abs(x).max())[0]
        bmin = bots[participants].min()
        cands = participants[bots[participants] == bmin]
        j0 = cands[np.argmax(np.abs(x[cands]) * colnorms[cands])]
        # col_j0 += sum_j (x_j/x_j0) zeta^(b_j0 - b_j) col_j, exponents <= 0
        K0, s_, _ = coeffs.shape
        pad = int((bots - bmin).max())
        new = np.zeros((K0 + pad, s_, s_), dtype=complex)
        new[pad:] = coeffs
        new_lo = lo - pad
        for j in participants:
            if j == j0:
                continue
            shift = int(bots[j0] - bots[j])  # <= 0
            fac = x[j] / x[j0]
            sl = pad + shift
            new[sl : sl + K0, :, j0] += fac * coeffs[:, :, j]
        # the mix cancels everything at and below the pivot bottom degree:
        # enforce the designed zeros so roundoff cannot masquerade as a bottom
        cut = int(bots[j0] - new_lo)
        new[: cut + 1, :, j0] = 0.0
        norm = np.abs(new[:, :, j0]).max()
        if norm == 0.0:
            raise FactorizationError("column reduction annihilated a column")
        new[:, :, j0] /= norm
        coeffs, lo = _snap_columns(new), new_lo
    raise FactorizationError("column reduction exceeded its round budget")


def partial_indices(symbol):
    """Partial indices of a sampled symbol via exact Birkhoff reduction.

    Factors the symbol's reduced form, which `build_B` attaches; a
    symbol without one raises InvalidInputError.  The result always
    satisfies sum(kappa) = winding of det(samples): the sum is the
    form's determinant order, the one `maslov_index` checks against.
    """
    if symbol.reduced is None:
        raise InvalidInputError(
            "partial_indices needs the symbol's index-equivalent form; "
            "build the symbol with build_B"
        )
    kappa = birkhoff_partial_indices(symbol.reduced)
    _checked_winding(symbol, int(kappa.sum()))
    return PartialIndices.from_values(kappa)


# ---------------------------------------------------------------------------
# Toeplitz kernel oracle
# ---------------------------------------------------------------------------


def toeplitz_kernel_indices(symbol, order=64):
    """Partial indices read from truncated block-Toeplitz kernel counts.

    The kernel-dimension formula dim ker T_V = sum max(-nu_j, 0) holds
    for factorizations with the minus factor on the left; transposing
    swaps the factor order while keeping the exponents, so the oracle
    works on the transposed symbol to measure the same (plus-first)
    indices the factorization code produces.  For the transposed symbol
    shifted by zeta^{-m} the kernel dimension is
    h(m) = sum_j max(m - kappa_j, 0).

    Restricting inputs to polynomial degree <= order while keeping
    every output mode (a tall section) represents the operator without
    finite-section reflection artifacts; kernel dimensions are read
    from singular values below ORACLE_SV_TOL * sigma_max.  The increments
    h(m+1) - h(m) count the indices below each level.  Brute-force
    oracle for tests, not the production algorithm.
    """
    s, N = symbol.size, symbol.N
    c = np.fft.fft(np.swapaxes(symbol.samples, 1, 2), axis=0) / N
    m_modes = np.fft.fftfreq(N, 1.0 / N).astype(int)
    # block N is zero: it stands for every mode off the grid
    blocks = np.concatenate([c, np.zeros((1, s, s), dtype=complex)])
    # the tall section only needs rows reaching the symbol's support
    mags = np.linalg.norm(c, axis=(1, 2))
    sig = np.abs(m_modes[mags > 1e-13 * mags.max()])
    support = int(sig.max()) if sig.size else 0
    rows = order + support + 1
    offsets = np.arange(rows)[:, None] - np.arange(order + 1)[None, :]

    def kernel_dim(shift):
        k = offsets + shift
        on_grid = (k >= -(N // 2)) & (k < N // 2)
        # block (i, j) of T is the coefficient of mode i - j + shift
        T = blocks[np.where(on_grid, k % N, N)].transpose(0, 2, 1, 3)
        T = T.reshape(rows * s, (order + 1) * s)
        sv = np.linalg.svd(T, compute_uv=False)
        top = sv[0] if sv[0] > 0 else 1.0
        small = int(np.sum(sv < ORACLE_SV_TOL * top))
        if small:
            # a kernel count is only trusted across a clear spectral gap
            counted_max = sv[sv < ORACLE_SV_TOL * top].max()
            uncounted_min = sv[sv >= ORACLE_SV_TOL * top].min()
            if counted_max > 0 and uncounted_min / counted_max < 1e3:
                raise FactorizationError("Toeplitz oracle has no clear singular gap")
        return small

    wind = winding_number(symbol.det_samples())
    start = int(np.floor(wind / s))
    h = {}

    def get(m):
        if m not in h:
            h[m] = kernel_dim(m)
        return h[m]

    lo = start
    for _ in range(ORACLE_MAX_SCAN):
        if get(lo) == 0:
            break
        lo -= 1
    if get(lo) != 0:
        raise FactorizationError("Toeplitz oracle scan did not reach the lowest index")
    kappa = []
    prev = 0
    m = lo
    for _ in range(ORACLE_MAX_SCAN):
        inc = get(m + 1) - get(m)
        if inc < prev or inc > s:
            raise FactorizationError("inconsistent Toeplitz kernel increments")
        kappa.extend([m] * (inc - prev))
        prev = inc
        m += 1
        if inc == s:
            break
    if len(kappa) != s:
        raise FactorizationError("Toeplitz oracle did not recover s indices")
    pi = PartialIndices.from_values(kappa)
    if pi.total != wind:
        raise FactorizationError("Toeplitz oracle sum disagrees with det winding")
    return pi


# ---------------------------------------------------------------------------
# Reduction-chain replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    steps: list
    det_winding: int
    kappa_gradient: PartialIndices
    kappa_closed: PartialIndices


def verify_reduction_chain(q, params, N=None):
    """Replay the constant/one-sided reduction from G to the closed form.

    Each recorded step multiplies the gradient matrix on the right by a
    constant or a minus-side diagonal factor (or permutes rows), none
    of which moves a partial index or the determinant winding; the
    chain must land exactly on the displayed closed-form symbol, and
    the gradient-based and closed-form partial indices must agree.  The
    chain runs at the pole a; the two index computations go through the
    pole-0 forms of `build_B`.
    """
    N = validate_grid(N or GRID_DEFAULT)
    if np.linalg.norm(params.v) != 0.0:
        raise InvalidParamsError("reduction chain assumes a centered disc (v = 0)")
    lift = projectivize_lift(q, LiftParams(disc=params, b=1.0), N=N)
    q, params = lift.quadric, lift.params
    n = q.n
    s = 2 * n + 1
    zeta = circle_nodes(N)
    a = params.a
    w = params.w
    g = q.A @ w
    gn = g[n - 1]
    if abs(gn) < 1e-12:
        raise InvalidParamsError("normalizing component vanishes")

    G0 = build_G(lift).samples
    steps = []

    def record(name, Gk):
        dw = winding_number(np.linalg.det(Gk))
        steps.append({"step": name, "det_winding": int(dw)})
        return Gk

    record("gradient-matrix", G0)

    M1 = np.zeros((s, s), dtype=complex)
    M1[0, 0] = 1.0
    M1[1 : n + 1, 1 : n + 1] = np.linalg.inv(q.A.conj())
    M1[n + 1 :, n + 1 :] = np.eye(n)
    G1 = record("column-normalization", G0 @ M1)

    D2 = np.eye(s, dtype=complex)
    D2[0, 0] = 2.0
    for k in range(n + 1, 2 * n + 1):
        D2[k, k] = 1.0 / gn
    perm = [0, n, 2 * n]
    for j in range(1, n):
        perm.extend([j, n + j])
    P = np.zeros((s, s))
    for new, old in enumerate(perm):
        P[new, old] = 1.0
    G2 = record("column-scaling-row-permutation", np.einsum("ij,kjl->kil", P, G1 @ D2))

    # constant column combination: new C1 = old C_n + sum t_j old C_j, etc.
    t_const = np.conj(g) / np.conj(gn)
    V = np.zeros((s, s), dtype=complex)
    V[0, 0] = 1.0
    V[n, 1] = 1.0
    for j in range(1, n):
        V[j, 1] = t_const[j - 1]
    V[n + 1, 2] = 1.0
    for j in range(1, n):
        V[j, 2 * j + 1] = 1.0
        V[n + 1 + j, 2 * j + 2] = 1.0
    G3 = record("column-combination", G2 @ V)

    gamma = -1.0 / (2.0 * np.conj(gn))
    d4 = np.ones((N, s), dtype=complex)
    d4[:, 1] = 1.0 / (gamma * (1.0 - np.conj(a) * np.conj(zeta)))
    G4 = record("minus-side-normalization", G3 * d4[:, None, :])

    qdiag = np.ones((N, s), dtype=complex)
    tau = 1.0 - np.conj(a) * np.conj(zeta)
    qdiag[:, 1] = 1.0 / tau
    for k in range(3, s, 2):
        qdiag[:, k] = -1.0 / tau
    G5 = record("minus-side-diagonal", G4 * qdiag[:, None, :])

    B_end = np.linalg.solve(np.conj(G5), G5)
    closed = build_B(q, params, source="closed_form", N=N)
    err = np.abs(B_end - closed.samples).max()
    if err > CHAIN_POINTWISE_TOL * max(1.0, np.abs(closed.samples).max()):
        raise ReductionMismatchError(f"chain endpoint deviates from closed form by {err}")

    winds = {st["det_winding"] for st in steps}
    if len(winds) != 1:
        raise ReductionMismatchError(
            f"determinant winding changed along the chain: {steps} on N={N} samples;"
            " a pole near the circle needs a larger grid"
        )

    grad_sym = build_B(q, params, source="gradient", N=N)
    kappa_grad = partial_indices(grad_sym)
    kappa_closed = partial_indices(closed)
    if kappa_grad != kappa_closed:
        raise ReductionMismatchError(
            f"index mismatch: gradient {kappa_grad} vs closed {kappa_closed}"
        )
    return ReductionReport(
        steps=steps,
        det_winding=kappa_closed.total,  # partial_indices checked it against the winding
        kappa_gradient=kappa_grad,
        kappa_closed=kappa_closed,
    )
