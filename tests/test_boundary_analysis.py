import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statdisc import (
    DiscParams,
    Hyperquadric,
    PerturbedHypersurface,
    circle_nodes,
    construct_regular_lift,
    hilbert_transform,
    holomorphic_defect,
    make_disc,
    winding_number,
)
from statdisc.errors import (
    InvalidInputError,
    LiftConstructionError,
    ResolutionError,
    WindingUndefinedError,
)

N = 256
ZETA = circle_nodes(N)
THETA = 2 * np.pi * np.arange(N) / N


class TestFourier:
    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            holomorphic_defect(np.ones(100))


class TestHilbert:
    def test_cosine_to_sine(self):
        assert np.abs(hilbert_transform(np.cos(THETA)) - np.sin(THETA)).max() < 1e-13

    def test_constant_killed(self):
        assert np.abs(hilbert_transform(3.0 * np.ones(N))).max() == 0.0

    def test_sine_gives_holomorphic_pair(self):
        g = np.sin(THETA)
        U = -hilbert_transform(g)
        assert np.abs(U - np.cos(THETA)).max() < 1e-13
        assert holomorphic_defect(U + 1j * g) < 1e-13

    @staticmethod
    def reference(g):
        """T by its definition: complex FFT, multiplier -i sign(m), mean and Nyquist killed."""
        N = g.shape[-1]
        m = np.fft.fftfreq(N, 1.0 / N)
        mult = -1j * np.sign(m)
        mult[0] = mult[N // 2] = 0.0
        return np.fft.ifft(np.fft.fft(g, axis=-1) * mult, axis=-1).real

    @pytest.mark.parametrize("n", [8, 128, 256, 1024])
    @pytest.mark.parametrize("shape", [(), (16,)])
    def test_matches_multiplier_definition(self, rng, n, shape):
        g = rng.normal(size=shape + (n,))
        got = hilbert_transform(g)
        assert got.shape == g.shape and got.dtype == float
        assert np.abs(got - self.reference(g)).max() <= 1e-14 * np.abs(g).max()

    def test_accepts_numerically_real_complex(self, rng):
        g = rng.normal(size=N)
        got = hilbert_transform(g + 1e-15j * rng.normal(size=N))
        assert np.abs(got - self.reference(g)).max() <= 1e-14 * np.abs(g).max()

    def test_rejects_complex(self):
        with pytest.raises(InvalidInputError):
            hilbert_transform(ZETA)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    def test_double_transform_is_minus_mean_free_part(self, coeffs):
        g = sum(
            c * np.cos((k + 1) * THETA) if k % 2 == 0 else c * np.sin(k * THETA)
            for k, c in enumerate(coeffs)
        ) + coeffs[0]
        g = np.asarray(g, dtype=float)
        tt = hilbert_transform(hilbert_transform(g))
        assert np.abs(tt + (g - g.mean())).max() < 1e-10 * (1 + np.abs(g).max())


class TestDefect:
    def test_holomorphic_monomial(self):
        assert holomorphic_defect(ZETA**2) < 1e-14

    def test_antiholomorphic(self):
        assert holomorphic_defect(ZETA.conj()) == pytest.approx(1.0)

    def test_lift_of_closed_form(self):
        from statdisc import ClosedFormLift, LiftParams

        q = Hyperquadric(n=1, A=np.array([[1.0]]))
        lift = ClosedFormLift(
            q, LiftParams(disc=DiscParams(y0=0.0, v=[0], w=[1], a=0.5), b=1.0)
        )
        hs = lift.boundary(N)
        assert np.max(holomorphic_defect(ZETA[None, :] * hs)) < 1e-10

    def test_nonnegative_synthesis(self, rng):
        coeffs = np.zeros(N, dtype=complex)
        coeffs[: N // 2] = rng.normal(size=N // 2) + 1j * rng.normal(size=N // 2)
        assert holomorphic_defect(np.fft.ifft(coeffs * N)) < 1e-14


class TestWinding:
    def test_constant(self):
        assert winding_number(5.0 * np.ones(N) + 0j) == 0

    def test_cubed(self):
        assert winding_number(ZETA**3) == 3

    def test_conjugation_symbol_determinant(self):
        # the closed-form boundary symbol has det winding 2n + 2
        from statdisc import build_B

        q = Hyperquadric(n=1, A=np.array([[1.0]]))
        B = build_B(q, DiscParams(y0=0.0, v=[0], w=[1], a=0.3), source="closed_form")
        assert winding_number(np.linalg.det(B.samples)) == 4

    def test_vanishing_rejected(self):
        vals = ZETA - 1.0
        with pytest.raises(WindingUndefinedError):
            winding_number(vals)

    def test_resolution_guard(self):
        zeta8 = circle_nodes(8)
        with pytest.raises(ResolutionError):
            winding_number(zeta8**4)  # phase step exactly pi

    def test_additive_under_products(self, rng):
        f = (ZETA**2) * (2.0 - ZETA)
        g = ZETA.conj() * (3.0 + ZETA)
        assert winding_number(f * g) == winding_number(f) + winding_number(g)


class TestRegularLift:
    Q = Hyperquadric(n=1, A=np.array([[1.0]]))
    M0 = PerturbedHypersurface(base=Q)

    def test_linear_disc_hand_values(self):
        h = np.vstack([np.ones(N), ZETA])
        lift = construct_regular_lift(self.M0, h)
        assert np.abs(lift.phi + 1.0).max() < 1e-13
        assert np.abs(lift.lam - 1.0).max() < 1e-13
        assert np.abs((lift.lam * lift.grad.T)[0] - 0.5).max() < 1e-13
        assert np.abs((lift.lam * lift.grad.T)[1] + ZETA.conj()).max() < 1e-13
        assert np.max(lift.defects) < 1e-13

    def test_defining_function_scale_invariance(self):
        # with 2*rho the factor halves and the lift is unchanged
        m2 = PerturbedHypersurface(
            base=Hyperquadric(n=1, A=2 * np.array([[1.0]])), epsilon=0.0
        )
        d = make_disc(self.Q, DiscParams(y0=0.2, v=[0.1j], w=[1.0], a=0.4))
        h = d.boundary(N)
        base = construct_regular_lift(self.M0, h)
        # scaling rho by 2: same zero set as quadric with A doubled plus
        # first-coordinate factor; emulate by scaling the gradient instead
        lam2 = np.exp(
            -np.log(2.0)
        )  # lambda for 2*rho is lambda/2, exactly
        lift2_hstar = (base.lam * lam2 * 2)[None, :] * self.M0.grad_rho_many(h.T).T
        ratio = lift2_hstar / (base.lam * base.grad.T)
        assert np.abs(ratio - 1.0).max() < 1e-12

    def test_perturbed_disc_end_to_end(self):
        from statdisc import Disc, SolveConfig, solve_glued_disc

        m = PerturbedHypersurface(base=self.Q, epsilon=1e-3, terms={(0, 0, 3, 0): 1.0})
        cfg = SolveConfig(N=128, M=32)
        start = Disc(self.Q, DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.2)).coefficients(cfg.M)
        sol = solve_glued_disc(m, start, cfg)
        lift = construct_regular_lift(m, sol.boundary_values(128))
        assert np.max(lift.defects) < 1e-9

    def test_constant_disc_rejected(self):
        h = np.vstack([np.ones(N), np.zeros(N)])
        with pytest.raises(LiftConstructionError):
            construct_regular_lift(self.M0, h)

    def test_reproduces_closed_form_up_to_positive_factor(self, rng):
        from statdisc import ClosedFormLift, LiftParams

        from conftest import lift_zero_modulus, random_disc_params, random_hermitian_quadric

        done = 0
        while done < 5:
            n = int(rng.integers(1, 3))
            q = random_hermitian_quadric(rng, n)
            params = random_disc_params(rng, n, a_max=0.5)
            d = make_disc(q, params)
            h = d.boundary(N)
            try:
                built = construct_regular_lift(PerturbedHypersurface(base=q), h)
            except LiftConstructionError:
                # off-center discs whose lift's last component vanishes
                # inside the disc have no regular lift
                assert lift_zero_modulus(q, params) < 1.0
                continue
            closed = ClosedFormLift(q, LiftParams(disc=params, b=1.0)).boundary(N)
            mask = np.abs(closed) > 1e-6 * np.abs(closed).max()
            ratio = (built.lam * built.grad.T)[mask] / closed[mask]
            assert np.abs(ratio.imag).max() < 1e-9 * np.abs(ratio).max()
            assert ratio.real.min() > 0
            done += 1

    def test_refused_exactly_when_the_lift_vanishes_inside(self):
        # zeta * h*_n has winding 1 when its zero zeta* lies inside the
        # disc and 0 otherwise; draws too near the circle are skipped
        from conftest import lift_zero_modulus, random_disc_params, random_hermitian_quadric

        rng = np.random.default_rng(7)
        outcomes = []
        for k in range(300):
            n = int(rng.integers(1, 4))
            q = random_hermitian_quadric(rng, n)
            params = random_disc_params(rng, n, a_max=0.9, centered=k % 10 == 0)
            zero = lift_zero_modulus(q, params)
            if abs(zero - 1.0) < 0.05:
                continue
            h = make_disc(q, params).boundary(N)
            try:
                construct_regular_lift(PerturbedHypersurface(base=q), h)
                refused = False
            except LiftConstructionError:
                refused = True
            assert refused == (zero < 1.0), (k, zero)
            outcomes.append(refused)
        assert 0 < sum(outcomes) < len(outcomes)
