import gc

import numpy as np
import pytest

from statdisc import (
    DiscParams,
    Hyperquadric,
    LaurentMatrix,
    LiftParams,
    MatrixSymbol,
    birkhoff_partial_indices,
    build_B,
    build_G,
    circle_nodes,
    maslov_index,
    partial_indices,
    projectivize_lift,
    toeplitz_kernel_indices,
    verify_reduction_chain,
)
from statdisc import indices
from statdisc.errors import (
    FactorizationError,
    InvalidInputError,
    InvalidParamsError,
    SymbolSingularError,
)

from conftest import random_disc_params, random_hermitian_quadric

SPHERE = Hyperquadric(n=1, A=np.array([[1.0]]))
N = 256
ZETA = circle_nodes(N)


def diag_symbol(*powers):
    s = len(powers)
    smp = np.zeros((N, s, s), dtype=complex)
    for j, k in enumerate(powers):
        smp[:, j, j] = ZETA**k
    return MatrixSymbol(samples=smp)


class TestMatrixSymbol:
    def test_singular_rejected(self):
        smp = np.zeros((N, 2, 2), dtype=complex)
        smp[:, 0, 0] = ZETA
        smp[:, 1, 1] = ZETA - 1.0
        with pytest.raises(SymbolSingularError):
            MatrixSymbol(samples=smp)


class TestBuildG:
    def test_first_row_entry(self):
        proj = projectivize_lift(
            SPHERE, LiftParams(disc=DiscParams(y0=0.0, v=[0], w=[1], a=0.0), b=1.0), N=N
        )
        G = build_G(proj)
        assert np.allclose(G.samples[:, 0, 0], 0.5)
        assert np.abs(np.linalg.det(G.samples)).min() > 1e-10

    def test_rows_match_finite_difference_gradients(self, rng):
        n = 2
        q = random_hermitian_quadric(rng, n)
        params = random_disc_params(rng, n, centered=True)
        proj = projectivize_lift(q, LiftParams(disc=params, b=1.0), N=64)
        q2, f = proj.quadric, proj.values
        G = build_G(proj)
        A = q2.A

        def defining(zt):
            z, t = zt[: n + 1], zt[n + 1 :]
            u = z[1:].conj() @ A
            e = np.empty(n, dtype=complex)
            e[0] = -u[n - 1] * t[0] - 0.5
            for j in range(1, n):
                e[j] = -u[n - 1] * t[j] + u[j - 1]
            rows = [z[0].real - (z[1:].conj() @ A @ z[1:]).real]
            rows += [2 * e[j].real for j in range(1, n)]
            rows.append(2 * e[0].real)
            rows += [-2 * e[j].imag for j in range(1, n)]
            rows.append(-2 * e[0].imag)
            return np.array(rows)

        h = 1e-6
        for k in (0, 7, 33):
            zt = f[:, k]
            fd = np.empty((2 * n + 1, 2 * n + 1), dtype=complex)
            for j in range(2 * n + 1):
                dz = np.zeros_like(zt)
                dz[j] = h
                dx = (defining(zt + dz) - defining(zt - dz)) / (2 * h)
                dz[j] = 1j * h
                dy = (defining(zt + dz) - defining(zt - dz)) / (2 * h)
                fd[:, j] = 0.5 * (dx + 1j * dy)  # conjugate-variable gradient
            assert np.abs(G.samples[k] - fd).max() < 1e-6


class TestBuildB:
    def test_lower_right_block_n1(self):
        B = build_B(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.3), source="closed_form")
        assert np.abs(B.samples[:, 1, 2] - ZETA**2).max() < 1e-14
        assert np.abs(B.samples[:, 2, 1] - ZETA**2).max() < 1e-14
        assert np.abs(B.samples[:, 1, 1]).max() == 0.0

    def test_det_n1(self):
        B = build_B(
            SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.4 - 0.2j), source="closed_form"
        )
        assert np.abs(np.linalg.det(B.samples) + ZETA**4).max() < 1e-12

    def test_det_n2_sign(self):
        q = Hyperquadric(n=2, A=np.diag([1.0, 2.0]))
        B = build_B(
            q, DiscParams(y0=0.0, v=[0, 0], w=[1.0, 0.5j], a=0.3 + 0.1j), source="closed_form"
        )
        assert np.abs(np.linalg.det(B.samples) - ZETA**6).max() < 1e-12

    def test_gradient_mode_matches_pointwise(self):
        p = DiscParams(y0=0.0, v=[0], w=[1], a=0.3)
        Bg = build_B(SPHERE, p, source="gradient")
        proj = projectivize_lift(SPHERE, LiftParams(disc=p, b=1.0), N=N)
        G = build_G(proj)
        expected = -np.linalg.solve(np.conj(G.samples), G.samples)
        assert np.abs(Bg.samples - expected).max() < 1e-12

    def test_gradient_pole_clearing_leaves_no_reference_cycles(self):
        # a != 0: samples at the pole a, the reduced form from pole 0
        p = DiscParams(y0=0.0, v=[0], w=[1], a=0.5 + 0.2j)
        build_B(SPHERE, p, source="gradient")  # first-call caches
        gc.collect()
        gc.disable()
        try:
            build_B(SPHERE, p, source="gradient")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_requires_centered(self):
        with pytest.raises(InvalidParamsError):
            build_B(SPHERE, DiscParams(y0=0.0, v=[0.5], w=[1], a=0.1))

    @pytest.mark.parametrize("source", ["closed-form", "G", "g_based", "G-based"])
    def test_only_the_two_source_names(self, source):
        with pytest.raises(InvalidInputError):
            build_B(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.3), source=source)


class TestMaslov:
    def test_identity_symbol(self):
        assert maslov_index(diag_symbol(0, 0)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_index_2n_plus_2(self, n, rng):
        q = random_hermitian_quadric(rng, n)
        p = random_disc_params(rng, n, centered=True)
        B = build_B(q, p, source="closed_form")
        assert maslov_index(B) == 2 * n + 2

    def test_missed_pole_is_refused_and_names_the_grid(self):
        # at |a| = 0.999 the 256-point winding of the gradient symbol
        # misses the pole without a phase step near pi: it reads 2, and
        # the reduced form's determinant order, the index sum, is 4
        p = DiscParams(y0=0.0, v=[0], w=[1], a=0.999)
        B = build_B(SPHERE, p, source="gradient")
        with pytest.raises(FactorizationError) as err:
            maslov_index(B)
        assert str(err.value) == (
            "partial index sum 4 != det winding 2 on N=256 samples;"
            " a pole near the circle needs a larger grid"
        )
        assert maslov_index(build_B(SPHERE, p, source="gradient", N=16384)) == 4


def count_det_roots(monkeypatch):
    """The argument tuples of every indices._extract_det_roots call from now on."""
    calls = []
    original = indices._extract_det_roots

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(indices, "_extract_det_roots", counted)
    return calls


class TestPartialIndices:
    def test_diag(self):
        kappa = birkhoff_partial_indices(LaurentMatrix(np.eye(2)[None], 1))
        assert tuple(kappa.tolist()) == (1, 1)

    def test_offdiagonal_squares(self):
        kappa = birkhoff_partial_indices(LaurentMatrix([[[0, 1], [1, 0]]], 2))
        assert tuple(kappa.tolist()) == (2, 2)

    def test_factorization_leaves_the_reduced_form_unchanged(self):
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        p = DiscParams(y0=0.0, v=[0, 0], w=[1, 0.5], a=0.4)
        B = build_B(q, p, source="gradient")
        before = B.reduced.coeffs.tobytes()
        first, second = partial_indices(B), partial_indices(B)
        assert first == second
        assert B.reduced.coeffs.tobytes() == before
        assert not B.reduced.coeffs.flags.writeable

    def test_symbol_without_reduced_form_is_refused(self):
        with pytest.raises(InvalidInputError, match="build_B"):
            partial_indices(diag_symbol(1, 1))

    def test_non_monomial_determinant_is_refused(self, monkeypatch):
        # diag(zeta - 0.5, 1): an interior determinant zero at 0.5; the
        # refusal is not cached, so every read of the form refuses it again
        C = np.zeros((2, 2, 2), dtype=complex)
        C[0] = np.diag([-0.5, 1.0])
        C[1, 0, 0] = 1.0
        lm = LaurentMatrix(C, 0)
        calls = count_det_roots(monkeypatch)
        for _ in range(2):
            with pytest.raises(FactorizationError, match="not a monomial"):
                birkhoff_partial_indices(lm)
        assert len(calls) == 2

    def test_determinant_order_is_taken_once_per_form(self, monkeypatch):
        # the closed-form symbols operation: partial indices, then the
        # Maslov check against the same form's determinant order
        calls = count_det_roots(monkeypatch)
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        B = build_B(q, DiscParams(y0=0.0, v=[0, 0], w=[1, 0.5], a=0.4))
        assert partial_indices(B).total == maslov_index(B) == 6
        assert len(calls) == 1

    def test_full_n1_against_toeplitz_oracle(self):
        # oracle-recorded value for (a, w) = (1/2, 1): (2, 1, 1)
        B = build_B(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.5), source="closed_form")
        oracle = toeplitz_kernel_indices(B, order=64)
        assert oracle.kappa == (2, 1, 1)
        pi = partial_indices(B)
        assert pi == oracle
        assert all(k >= 0 for k in pi.kappa) and pi.total == 4

    @pytest.mark.parametrize("source", ["closed_form", "gradient"])
    @pytest.mark.parametrize("r", [0.6, 0.75])
    def test_pole_a_against_toeplitz_oracle(self, r, source):
        # the reduced form comes from pole 0; the oracle reads the samples at
        # pole a.  Fixed models, A of both signs: the brute-force oracle
        # abstains ("no clear singular gap") on some random models at these
        # |a|, and a test that skips its abstentions could check nothing
        for n in (1, 2, 3):
            q = Hyperquadric(n=n, A=np.diag([(-1.0) ** j for j in range(n)]))
            p = DiscParams(y0=0.0, v=np.zeros(n), w=[1.0, 0.5, 0.2][:n], a=r * np.exp(1j))
            B = build_B(q, p, source=source)
            assert partial_indices(B) == toeplitz_kernel_indices(B, order=64)

    @pytest.mark.parametrize("source", ["closed_form", "gradient"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pole_zero_against_toeplitz_oracle(self, n, source, rng):
        # the reduced form itself: random models, pole 0, unit direction
        for _ in range(6):
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, centered=True)
            unit = DiscParams(y0=p.y0, v=p.v, w=p.w / np.linalg.norm(p.w), a=0.0)
            B = build_B(q, unit, source=source)
            assert partial_indices(B) == toeplitz_kernel_indices(B, order=16)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sources_agree_near_the_circle(self, n, rng):
        # at |a| = 0.9 the order-64 oracle has no singular gap; the index sum
        # is checked against the det winding of the samples at pole a
        for _ in range(3):
            q = random_hermitian_quadric(rng, n)
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = DiscParams(y0=0.0, v=np.zeros(n), w=w, a=0.9 * np.exp(2j * np.pi * rng.random()))
            closed = build_B(q, p, source="closed_form")
            kappa = partial_indices(closed)
            assert kappa.total == maslov_index(closed) == 2 * n + 2
            assert partial_indices(build_B(q, p, source="gradient")) == kappa

    @pytest.mark.parametrize("r", [0.999, 1.0 - 1e-10])
    def test_closed_form_up_to_the_domain_edge(self, r):
        # the pole-0 form uses w/|w|: with w/(1 - |a|^2) its entries span
        # 1e20 at the edge and the column reduction fails
        for n in (1, 2, 3):
            q = Hyperquadric(n=n, A=np.diag([(-1.0) ** j for j in range(n)]))
            p = DiscParams(y0=0.0, v=np.zeros(n), w=[1.0, 0.5, 0.2][:n], a=r * np.exp(1j))
            B = build_B(q, p, source="closed_form")
            assert partial_indices(B).total == maslov_index(B) == 2 * n + 2

    def test_random_instances_nonnegative_sum(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, centered=True)
            B = build_B(q, p, source="closed_form")
            pi = partial_indices(B)
            assert min(pi.kappa) >= 0
            assert pi.total == 2 * n + 2
            assert pi == toeplitz_kernel_indices(B, order=48)

    def test_sum_equals_det_winding(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 3))
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, centered=True)
            B = build_B(q, p, source="closed_form")
            assert partial_indices(B).total == maslov_index(B)

    def test_laurent_direct_algorithm(self):
        # [[z, 1],[0, 1/z]]: plus-first exponents are (1, -1)
        C = np.zeros((3, 2, 2), dtype=complex)
        C[0, 1, 1] = 1.0  # 1/z
        C[1, 0, 1] = 1.0  # constant in the corner
        C[2, 0, 0] = 1.0  # z
        kappa = birkhoff_partial_indices(LaurentMatrix(C, -1))
        assert sorted(kappa.tolist(), reverse=True) == [1, -1]


class TestReductionChain:
    def test_chain_n1(self):
        rep = verify_reduction_chain(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.5))
        assert rep.det_winding == 4
        assert rep.kappa_closed == rep.kappa_gradient
        winds = {st["det_winding"] for st in rep.steps}
        assert winds == {2}

    def test_chain_n2(self, rng):
        q = random_hermitian_quadric(rng, 2)
        p = random_disc_params(rng, 2, centered=True, a_max=0.5)
        rep = verify_reduction_chain(q, p)
        assert rep.det_winding == 6
        assert rep.kappa_closed == rep.kappa_gradient
        assert len({st["det_winding"] for st in rep.steps}) == 1

    def test_constant_scaling_keeps_winding(self):
        # doubling a column multiplies det by 2: winding unchanged
        p = DiscParams(y0=0.0, v=[0], w=[1], a=0.3)
        proj = projectivize_lift(SPHERE, LiftParams(disc=p, b=1.0), N=N)
        G = build_G(proj).samples
        from statdisc import winding_number

        w0 = winding_number(np.linalg.det(G))
        G2 = G.copy()
        G2[:, :, 0] *= 2.0
        assert winding_number(np.linalg.det(G2)) == w0
