from itertools import product

import numpy as np
import pytest

from statdisc import (
    ClosedFormLift,
    Disc,
    DiscParams,
    Hyperquadric,
    LiftParams,
    circle_nodes,
    disc_through,
    invert_disc,
    make_disc,
    projectivize_lift,
    verify_gluing,
)
from statdisc.errors import (
    DegenerateDiscError,
    InvalidParamsError,
    NotReachableError,
    PoleError,
)

from conftest import edge_pole, random_disc_params, random_hermitian_quadric

SPHERE = Hyperquadric(n=1, A=np.array([[1.0]]))
ONE = np.array(1.0 + 0.0j)


class TestParams:
    def test_invariants(self):
        with pytest.raises(InvalidParamsError):
            DiscParams(y0=0.0, v=[0], w=[0], a=0.0)
        with pytest.raises(InvalidParamsError):
            DiscParams(y0=0.0, v=[0], w=[1], a=1.0)


EDGE_W = np.array([1.0, 0.5, 0.2])
EDGE_MODELS = [
    np.diag(s) for s in ([1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0])
]


def _scaled_w_disc(q, p, delta):
    """The closed form of p with w scaled by 1 + delta in z_a only: not glued to q."""

    class ScaledW(Disc):
        def at(self, zeta):
            out = super().at(zeta)
            out[..., 1:] += delta * (out[..., 1:] - self.params.v)
            return out

    return ScaledW(q, p)


class TestMakeDisc:
    def test_linear_disc(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.0))
        assert np.allclose(d.at(ONE), [1.0, 1.0])
        zeta = circle_nodes(16)
        assert np.allclose(d.at(zeta)[:, 0], 1.0)
        assert np.allclose(d.at(zeta)[:, 1], zeta)

    def test_closed_form_endpoint(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.5))
        assert np.allclose(d.at(ONE), [4.0, 2.0], atol=1e-13)

    def test_offset_disc_boundary_identity(self):
        # h = (2 + 2 zeta, 1 + zeta): Re h0 = |h1|^2 on the circle
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[1], w=[1], a=0.0))
        zeta = circle_nodes(64)
        vals = d.at(zeta)
        assert np.allclose(vals[:, 0], 2 + 2 * zeta)
        assert np.allclose(vals[:, 0].real, np.abs(vals[:, 1]) ** 2, atol=1e-13)

    def test_gluing_residual_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n)
            d = make_disc(q, p)
            res = np.abs(q.eval_r_many(d.boundary(256).T)).max()
            assert res < 1e-10 * (1 + p.norm() ** 2)

    @pytest.mark.parametrize("r", [0.0, 0.6, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-8, 1 - 1e-9])
    def test_gluing_check_refuses_a_scaled_w(self, r):
        # the rounding floor of the check admits the exact disc near the
        # circle but not one whose z_a is (1 + 1e-6) times too long
        for A, phase in product(EDGE_MODELS, (0.0, 1.0)):
            n = A.shape[0]
            q = Hyperquadric(n=n, A=A)
            p = DiscParams(y0=0.1, v=np.zeros(n), w=EDGE_W[:n], a=edge_pole(r, phase))
            Disc(q, p)
            with pytest.raises(InvalidParamsError, match="gluing residual"):
                _scaled_w_disc(q, p, 1e-6)

    def test_gluing_check_resolution_at_the_domain_edge(self):
        # at |a| = 1 - 1e-10, Re h0 carries a relative rounding error of
        # about u/(1 - |a|^2) ~ 6e-7, as large as the change that a 1e-6
        # scaling of w makes: the check resolves errors of w from about 1e-5
        for A, phase in product(EDGE_MODELS, (0.0, 1.0)):
            n = A.shape[0]
            q = Hyperquadric(n=n, A=A)
            p = DiscParams(y0=0.1, v=np.zeros(n), w=EDGE_W[:n], a=edge_pole(1 - 1e-10, phase))
            Disc(q, p)
            with pytest.raises(InvalidParamsError, match="gluing residual"):
                _scaled_w_disc(q, p, 1e-5)

    def test_center_criterion(self, rng):
        # h(0) on the quadric exactly when the w-form vanishes
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        on = DiscParams(y0=0.3, v=[0.2, 0.1j], w=[1.0, 1.0], a=0.2)  # wAw = 0
        off = DiscParams(y0=0.3, v=[0.2, 0.1j], w=[1.0, 0.5], a=0.2)
        d_on, d_off = make_disc(q, on), make_disc(q, off)
        assert abs(q.eval_r(d_on.center())) < 1e-12
        assert abs(q.eval_r(d_off.center())) > 1e-3

    def test_pole_guard(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.5))
        with pytest.raises(PoleError):
            d.at(np.array(2.0 + 0.0j))


class TestInvertDisc:
    def test_linear(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.0))
        rec = invert_disc(SPHERE, d.boundary(256))
        assert abs(rec.y0) < 1e-12
        assert np.abs(rec.v).max() < 1e-12
        assert np.allclose(rec.w, [1.0])
        assert abs(rec.a) < 1e-12

    def test_pole_parameter_recovery(self):
        p = DiscParams(y0=0.0, v=[0], w=[1], a=0.3 + 0.4j)
        rec = invert_disc(SPHERE, make_disc(SPHERE, p).boundary(256))
        assert abs(rec.a - (0.3 + 0.4j)) < 1e-8

    def test_imaginary_offset_passthrough(self):
        p = DiscParams(y0=5.0, v=[0], w=[1], a=0.2)
        rec = invert_disc(SPHERE, make_disc(SPHERE, p).boundary(256))
        assert abs(rec.y0 - 5.0) < 1e-8

    def test_distance_ratio_oracle(self):
        # theta(zeta) as sampled equals Re(a zeta) for a true disc
        a = 0.25 - 0.35j
        p = DiscParams(y0=0.0, v=[0.3], w=[1.2], a=a)
        h = make_disc(SPHERE, p).boundary(256)
        v = h[1:].mean(axis=1)
        w_norm = np.abs(np.fft.fft(h[1], 256)[1] / 256)
        for idx, zeta in ((0, 1.0), (64, 1j)):
            opp = (idx + 128) % 256
            theta = (
                w_norm**2
                / 4.0
                * (
                    1.0 / np.abs(h[1, opp] - v[0]) ** 2
                    - 1.0 / np.abs(h[1, idx] - v[0]) ** 2
                )
            )
            assert abs(theta - (a * zeta).real) < 1e-10

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n)
            rec = invert_disc(q, make_disc(q, p).boundary(256))
            assert abs(rec.y0 - p.y0) < 1e-8
            assert np.abs(rec.v - p.v).max() < 1e-8
            assert np.abs(rec.w - p.w).max() < 1e-8
            assert abs(rec.a - p.a) < 1e-8

    def test_grid_rotation_rotates_a(self):
        p = DiscParams(y0=0.1, v=[0.2], w=[1.0], a=0.3 + 0.2j)
        h = make_disc(SPHERE, p).boundary(256)
        shift = 16
        rot = np.exp(2j * np.pi * shift / 256)
        rec = invert_disc(SPHERE, np.roll(h, -shift, axis=1))
        assert abs(rec.a - p.a * rot) < 1e-8
        assert np.abs(rec.w - p.w * rot).max() < 1e-8

    def test_degenerate_rejected(self):
        h = np.vstack([np.ones(256), 1e-10 * circle_nodes(256)])
        with pytest.raises(DegenerateDiscError):
            invert_disc(SPHERE, h)


class TestClosedFormLift:
    def test_linear_disc_lift(self):
        lift = ClosedFormLift(
            SPHERE, LiftParams(disc=DiscParams(y0=0.0, v=[0], w=[1], a=0.0), b=1.0)
        )
        zeta = circle_nodes(64)
        hs = lift.boundary(64)
        assert np.abs(zeta * hs[0] - zeta / 2).max() < 1e-13
        assert np.abs(zeta * hs[1] + 1.0).max() < 1e-13

    def test_real_factor_value(self):
        lift = ClosedFormLift(
            SPHERE, LiftParams(disc=DiscParams(y0=0.0, v=[0], w=[1], a=0.5), b=1.0)
        )
        assert lift.c_factor(ONE) == pytest.approx(0.2)

    def test_linear_in_scale(self):
        p = DiscParams(y0=0.0, v=[0.2], w=[1.0], a=0.3)
        l1 = ClosedFormLift(SPHERE, LiftParams(disc=p, b=1.0)).boundary(128)
        l2 = ClosedFormLift(SPHERE, LiftParams(disc=p, b=2.0)).boundary(128)
        assert np.abs(l2 - 2 * l1).max() < 1e-13

    def test_realness_and_uniqueness(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, a_max=0.6)
            d = make_disc(q, p)
            hs = ClosedFormLift(q, LiftParams(disc=p, b=1.0)).boundary(128)
            grad = q.grad_r_many(d.boundary(128).T).T
            ratio = hs / grad
            scale = np.abs(ratio).max()
            assert np.abs(ratio.imag).max() < 1e-10 * scale
            assert np.abs(ratio - ratio[0]).max() < 1e-10 * scale  # same scalar per column
            assert np.abs(ratio).min() > 1e-3 * scale
            beta = -3.0
            l2 = ClosedFormLift(q, LiftParams(disc=p, b=beta)).boundary(128)
            assert np.abs(l2 / beta - hs).max() < 1e-12 * np.abs(hs).max()


class TestProjectivizedLift:
    def test_linear_disc_components(self):
        proj = projectivize_lift(
            SPHERE, LiftParams(disc=DiscParams(y0=0.0, v=[0], w=[1], a=0.0), b=1.0), N=64
        )
        zeta = circle_nodes(64)
        f = proj.values
        assert np.allclose(f[0], 1.0)
        assert np.allclose(f[1], zeta)
        assert np.allclose(f[2], -zeta / 2)

    def test_scale_independent(self):
        p = DiscParams(y0=0.2, v=[0], w=[1.5], a=0.4j)
        f1 = projectivize_lift(SPHERE, LiftParams(disc=p, b=1.0)).values
        f7 = projectivize_lift(SPHERE, LiftParams(disc=p, b=7.0)).values
        fm3 = projectivize_lift(SPHERE, LiftParams(disc=p, b=-3.0)).values
        assert np.abs(f1 - f7).max() < 1e-12
        assert np.abs(f1 - fm3).max() < 1e-12

    def test_trailing_components_constant(self):
        q = Hyperquadric(n=2, A=np.eye(2))
        p = DiscParams(y0=0.0, v=[0, 0], w=[1.0, 1.0], a=0.3)
        f = projectivize_lift(q, LiftParams(disc=p, b=1.0)).values
        # (w A)_1 / (w A)_2 = 1 for all zeta
        assert np.abs(f[4] - 1.0).max() < 1e-12

    def test_reorders_when_normalizer_vanishes(self):
        q = Hyperquadric(n=2, A=np.eye(2))
        p = DiscParams(y0=0.0, v=[0, 0], w=[1.0, 0.0 + 0.0j], a=0.0)
        proj = projectivize_lift(q, LiftParams(disc=p, b=1.0))
        assert proj.permutation == (1, 0)
        assert abs(proj.params.w[1] - 1.0) < 1e-14


class TestDiscThrough:
    def test_closed_form_case(self):
        p = disc_through(SPHERE, 1.0, np.array([4.0, 2.0], dtype=complex))
        assert abs(p.a - 0.6) < 1e-14
        assert abs(p.w[0] - 0.8) < 1e-14
        d = make_disc(SPHERE, p)
        assert np.abs(d.at(ONE) - [4.0, 2.0]).max() < 1e-10
        assert np.abs(d.center() - [1.0, 0.0]).max() < 1e-12

    def test_linear_case(self):
        p = disc_through(SPHERE, 1.0, np.array([1.0, 1.0], dtype=complex))
        assert abs(p.a) < 1e-14 and abs(p.w[0] - 1.0) < 1e-14

    def test_not_reachable_sign(self):
        # the sign obstruction fires regardless of the gluing check
        with pytest.raises(NotReachableError):
            disc_through(SPHERE, 1.0, np.array([-1.0, 1j], dtype=complex))

    def test_not_reachable_on_quadric(self):
        # an indefinite model has genuinely unreachable points of Q
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        z = np.array([-1.0, 0.0, 1.0], dtype=complex)
        assert abs(q.eval_r(z)) < 1e-14
        with pytest.raises(NotReachableError):
            disc_through(q, 1.0, z)

    def test_pole_point_is_unreachable(self):
        # the pole z0 = -conj(p0) sits inside the unreachable half-space,
        # so the sign obstruction reports first
        z = np.array([-1.0 + 1e-18j, 1j], dtype=complex)
        with pytest.raises((NotReachableError, PoleError)):
            disc_through(SPHERE, 1.0, z)

    def test_reachable_sample(self, rng):
        for _ in range(30):
            z1 = rng.normal() + 1j * rng.normal()
            z0 = abs(z1) ** 2 + 1j * rng.normal()
            if z0.real <= 1e-3:
                continue
            z = np.array([z0, z1])
            p = disc_through(SPHERE, 1.0, z)
            d = make_disc(SPHERE, p)
            assert np.abs(d.at(ONE) - z).max() < 1e-10


class TestVerifyGluing:
    def test_exact_disc(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.4))
        rep = verify_gluing(SPHERE, d.boundary(256))
        assert rep.max_residual < 1e-12
        assert rep.lift_defect < 1e-10

    def test_scaled_component_residual(self):
        d = make_disc(SPHERE, DiscParams(y0=0.0, v=[0], w=[1], a=0.5))
        h = d.boundary(256).copy()
        h[1] *= 1.01
        residual = np.abs(SPHERE.eval_r_many(h.T)).max()
        # oracle: r(h) = -(1.01^2 - 1)|h1|^2, max |h1| = 2 on this disc
        assert residual == pytest.approx((1.01**2 - 1) * 4.0, rel=1e-10)
        rep = verify_gluing(SPHERE, h)
        assert rep.max_residual == pytest.approx(residual, rel=1e-12)

    def test_off_center_disc_with_a_winding_free_lift(self):
        # phi = zeta * d r / d z_1 o h has winding 0 (its zero conj(a) -
        # conj(w) / conj(v) has modulus 1.75) but its samples surround 0,
        # so no half-plane separates them from 0
        d = make_disc(SPHERE, DiscParams(y0=0, v=[-1 - 0.6j], w=[-0.9 + 0.6j], a=-0.6 + 0.6j))
        rep = verify_gluing(SPHERE, d.boundary(256))
        assert rep.max_residual < 1e-12
        assert rep.lift_defect <= 1e-9
