
import numpy as np
import pytest

from statdisc import (
    Hyperquadric,
    PerturbedHypersurface,
    exists_disc_centered,
    satisfies_condition_star,
)
from statdisc.errors import InvalidInputError
from statdisc.quadric import Frame, z_to_real_coords

from conftest import random_hermitian_quadric

SPHERE = Hyperquadric(n=1, A=np.array([[1.0]]))


def fd_gradient(fn, z, h=1e-6):
    """Central-difference d/dz = (d/dx - i d/dy)/2 of a real function."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    for j in range(z.size):
        dz = np.zeros_like(z)
        dz[j] = h
        dx = (fn(z + dz) - fn(z - dz)) / (2 * h)
        dz[j] = 1j * h
        dy = (fn(z + dz) - fn(z - dz)) / (2 * h)
        out[j] = 0.5 * (dx - 1j * dy)
    return out


def at(many, z):
    """A batched evaluation, many(z[None])[0], at the single point z."""
    return many(np.asarray(z, dtype=complex)[None])[0]


def random_sextic(rng, q, terms=12):
    """eps = 1 perturbation of q by `terms` random monomials of degree <= 6."""
    d = 2 * (q.n + 1)
    poly = {}
    for _ in range(terms):
        mi = np.zeros(d, dtype=np.int64)
        for _ in range(rng.integers(0, 7)):
            mi[rng.integers(d)] += 1
        poly[tuple(mi)] = rng.normal()
    return PerturbedHypersurface(base=q, epsilon=1.0, terms=poly)


class TestEvalR:
    def test_point_on_quadric(self):
        assert SPHERE.eval_r([1, 1]) == 0.0

    def test_quadratic_term_vanishes(self):
        assert SPHERE.eval_r([1, 0]) == 1.0

    def test_signature_cancellation(self):
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        assert q.eval_r([0, 1, 1]) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SPHERE.eval_r([np.inf, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            Hyperquadric(n=2, A=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            Hyperquadric(n=2, A=np.diag([1.0, 0.0]))

    def test_real_for_random_points(self, rng):
        q = random_hermitian_quadric(rng, 3)
        z = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        vals = q.eval_r_many(z)
        assert vals.dtype == float


class TestGradR:
    def test_trivial_points(self):
        assert np.allclose(at(SPHERE.grad_r_many, [1, 0]), [0.5, 0.0])
        assert np.allclose(at(SPHERE.grad_r_many, [1, 1]), [0.5, -1.0])

    def test_hand_expansion_n2(self):
        # -conj(z_a)^T A with A = diag(2, 3), z_a = (i, 1): (2i, -3)
        q = Hyperquadric(n=2, A=np.diag([2.0, 3.0]))
        g = at(q.grad_r_many, [0, 1j, 1])
        assert np.allclose(g, [0.5, 2.0j, -3.0], atol=1e-14)
        fd = fd_gradient(q.eval_r, np.array([0, 1j, 1], dtype=complex))
        assert np.allclose(g, fd, atol=1e-6)

    def test_matches_finite_differences(self, rng):
        for n in (1, 2, 3):
            q = random_hermitian_quadric(rng, n)
            for _ in range(34):
                z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                g = at(q.grad_r_many, z)
                fd = fd_gradient(q.eval_r, z)
                assert np.abs(g - fd).max() < 1e-6 * (1 + np.abs(g).max())


class TestPerturbation:
    def test_epsilon_zero_bit_identical(self, rng):
        q = random_hermitian_quadric(rng, 2)
        m = PerturbedHypersurface(base=q, epsilon=0.0, terms={(0, 0, 3, 0, 0, 0): 1.0})
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert at(m.eval_rho_many, z) == q.eval_r(z)
        assert np.array_equal(at(m.grad_rho_many, z), at(q.grad_r_many, z))

    def test_cubic_term_value(self):
        m = PerturbedHypersurface(base=SPHERE, epsilon=0.01, terms={(0, 0, 3, 0): 1.0})
        assert at(m.eval_rho_many, [1, 1]) == pytest.approx(0.01, abs=1e-15)

    def test_cubic_term_gradient(self):
        m = PerturbedHypersurface(base=SPHERE, epsilon=0.01, terms={(0, 0, 3, 0): 1.0})
        g = at(m.grad_rho_many, [1, 1])
        # d s / d z1 = (3 x1^2)/2 at x1 = 1
        assert np.allclose(g, at(SPHERE.grad_r_many, [1, 1]) + 0.01 * np.array([0, 1.5]))
        fd = fd_gradient(lambda z: at(m.eval_rho_many, z), np.array([1, 1], dtype=complex))
        assert np.abs(g - fd).max() < 1e-6

    def test_hessian_by_hand(self):
        # s = x1^3 + x0 x1^2 y1 in the coordinates (x0, y0, x1, y1)
        m = PerturbedHypersurface(
            base=SPHERE, epsilon=0.01, terms={(0, 0, 3, 0): 1.0, (1, 0, 2, 1): 1.0}
        )
        x0, x1, y1 = 0.5, 2.0, -1.5
        H = m.hess_s_many(np.array([[x0 + 0.3j, x1 + 1j * y1]]))[0]
        ref = np.zeros((4, 4))
        ref[2, 2] = 6 * x1 + 2 * x0 * y1
        ref[0, 2] = ref[2, 0] = 2 * x1 * y1
        ref[0, 3] = ref[3, 0] = x1**2
        ref[2, 3] = ref[3, 2] = 2 * x0 * x1
        assert np.allclose(H, ref, rtol=0, atol=1e-13)

    def test_affine_in_epsilon(self, rng):
        q = random_hermitian_quadric(rng, 1)
        terms = {(1, 0, 2, 1): 0.7, (0, 0, 0, 4): -0.3}
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        r0 = q.eval_r(z)
        va = at(PerturbedHypersurface(base=q, epsilon=0.2, terms=terms).eval_rho_many, z)
        vb = at(PerturbedHypersurface(base=q, epsilon=0.5, terms=terms).eval_rho_many, z)
        vab = at(PerturbedHypersurface(base=q, epsilon=0.7, terms=terms).eval_rho_many, z)
        assert abs((va - r0) + (vb - r0) - (vab - r0)) < 1e-14 * (1 + abs(vab))

    def test_hessian_matches_gradient_differences(self, rng):
        q = random_hermitian_quadric(rng, 2)
        m = random_sextic(rng, q)
        # negative real and imaginary parts: odd powers of negative bases
        z = -rng.uniform(0.3, 1.2, size=(5, 3)) - 1j * rng.uniform(0.3, 1.2, size=(5, 3))

        def real_grad(z):
            g = m.grad_rho_many(z) - q.grad_r_many(z)  # (d/dx - i d/dy) s / 2
            out = np.empty((z.shape[0], 6))
            out[:, 0::2], out[:, 1::2] = 2.0 * g.real, -2.0 * g.imag
            return out

        H = m.hess_s_many(z)
        assert np.array_equal(H, H.transpose(0, 2, 1))
        h = 1e-5
        for k in range(6):
            dz = np.zeros(3, dtype=complex)
            dz[k // 2] = h if k % 2 == 0 else 1j * h
            fd = (real_grad(z + dz) - real_grad(z - dz)) / (2 * h)
            assert np.abs(H[:, :, k] - fd).max() <= 1e-7 * (1.0 + np.abs(H).max())

    def test_with_epsilon_matches_fresh_hypersurface(self, rng):
        m = random_sextic(rng, random_hermitian_quadric(rng, 2))
        z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        m.hess_s_many(z)  # builds the derivative stacks the stages carry
        assert m.with_epsilon(m.epsilon) is m
        for t in (0.25, 0.5, 0.75):
            stage = m.with_epsilon(t * m.epsilon)
            fresh = PerturbedHypersurface(base=m.base, epsilon=t * m.epsilon, terms=m.terms)
            assert stage == fresh
            assert stage._derivative_stack(2) is m._derivative_stack(2)
            for name in ("eval_rho_many", "grad_rho_many", "hess_s_many"):
                assert np.array_equal(getattr(stage, name)(z), getattr(fresh, name)(z))

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(InvalidInputError, match="epsilon must be finite"):
            PerturbedHypersurface(base=SPHERE, epsilon=eps, terms={(0, 0, 4, 0): 1.0})

    def test_real_coordinate_layout(self):
        z = np.array([1 + 2j, 3 - 4j])
        assert np.allclose(z_to_real_coords(z), [1, 2, 3, -4])

    def test_json_roundtrip(self):
        m = PerturbedHypersurface(
            base=Hyperquadric(n=2, A=np.array([[1.0, 0.5j], [-0.5j, -2.0]])),
            epsilon=1e-3,
            terms={(0, 0, 3, 0, 1, 0): 2.5},
        )
        m2 = PerturbedHypersurface.from_json(m.to_json())
        assert np.allclose(m2.base.A, m.base.A)
        assert m2.epsilon == m.epsilon
        assert m2.terms == m.terms


def random_frame(rng, q):
    """A Heisenberg translation followed by a dilation, both random."""
    b = rng.normal(size=q.n) + 1j * rng.normal(size=q.n)
    heis = Frame.heisenberg(q, b, tau=rng.normal())
    return heis.then(Frame.dilation(q.n, rng.uniform(0.3, 3.0)))


class TestFrame:
    """Phi(M) by composition: rho' = r + eps c2 s o Phi^-1."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_framed_rho_is_scaled_rho_of_the_preimage(self, rng, n):
        q = random_hermitian_quadric(rng, n)
        m = random_sextic(rng, q)
        F = random_frame(rng, q)
        y = rng.normal(size=(9, n + 1)) + 1j * rng.normal(size=(9, n + 1))
        framed = m.in_frame(F).eval_rho_many(y)
        ref = F.c2 * m.eval_rho_many(F.inverse(y))
        assert np.abs(framed - ref).max() <= 1e-12 * np.abs(ref).max()
        # the frame maps Q to itself: r o Phi = c2 r, and forward inverts inverse
        z = F.inverse(y)
        assert np.abs(q.eval_r_many(F.forward(z)) - F.c2 * q.eval_r_many(z)).max() <= 1e-12 * (
            1.0 + np.abs(q.eval_r_many(z)).max()
        )
        assert np.abs(F.forward(z) - y).max() <= 1e-12 * np.abs(y).max()

    def test_frames_compose(self, rng):
        q = random_hermitian_quadric(rng, 2)
        m = random_sextic(rng, q)
        F1, F2 = random_frame(rng, q), random_frame(rng, q)
        y = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        twice = m.in_frame(F1).in_frame(F2)
        once = m.in_frame(F1.then(F2))
        for name in ("eval_rho_many", "grad_rho_many", "hess_s_many"):
            a, b = getattr(twice, name)(y), getattr(once, name)(y)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
        # Phi2 o Phi1 is Phi1 first: its inverse is Phi1^-1 o Phi2^-1
        assert np.abs(once.frame.inverse(y) - F1.inverse(F2.inverse(y))).max() <= 1e-12 * (
            np.abs(once.frame.inverse(y)).max()
        )

    def test_identity_frame_is_bitwise(self, rng):
        q = random_hermitian_quadric(rng, 2)
        m = random_sextic(rng, q)
        identity = Frame(L=np.eye(3, dtype=complex), t=np.zeros(3, dtype=complex), c2=1.0)
        framed = m.in_frame(identity)
        z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        for name in ("eval_rho_many", "grad_rho_many", "hess_s_many"):
            assert np.array_equal(getattr(framed, name)(z), getattr(m, name)(z)), name
        assert framed.epsilon == m.epsilon
        assert framed._derivative_stack(2) is m._derivative_stack(2)

    @pytest.mark.parametrize("framed", [False, True], ids=["bare", "framed"])
    def test_rho_and_grad_in_one_sweep_are_bitwise(self, rng, framed):
        # the residual's one sweep gives eval_rho_many and grad_rho_many
        q = random_hermitian_quadric(rng, 2)
        m = random_sextic(rng, q)
        m = m.in_frame(random_frame(rng, q)) if framed else m
        z = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        rho, grad = m.rho_and_grad_many(z)
        assert np.array_equal(rho, m.eval_rho_many(z))
        assert np.array_equal(grad, m.grad_rho_many(z))

    @pytest.mark.parametrize("n", [1, 2])
    def test_framed_derivatives_match_differences(self, rng, n):
        q = random_hermitian_quadric(rng, n)
        m = random_sextic(rng, q).in_frame(random_frame(rng, q))
        y = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        grad = at(m.grad_rho_many, y)
        ref = fd_gradient(lambda u: at(m.eval_rho_many, u), y)
        assert np.abs(grad - ref).max() <= 1e-6 * (1.0 + np.abs(ref).max())
        # the Hessian of c2 s o Phi^-1 against differences of its real gradient
        d = 2 * (n + 1)

        def real_grad(u):
            g = at(m.grad_rho_many, u) - at(q.grad_r_many, u)
            out = np.empty(d)
            out[0::2], out[1::2] = 2.0 * g.real, -2.0 * g.imag
            return out / m.epsilon

        H = at(m.hess_s_many, y)
        assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
        for k in range(d):
            dz = np.zeros(n + 1, dtype=complex)
            dz[k // 2] = 1e-5 if k % 2 == 0 else 1e-5j
            fd = (real_grad(y + dz) - real_grad(y - dz)) / 2e-5
            assert np.abs(H[:, k] - fd).max() <= 1e-6 * (1.0 + np.abs(H).max())


def brute_force_exists(q, x0, rng, samples=10_000):
    w = rng.normal(size=(samples, q.n)) + 1j * rng.normal(size=(samples, q.n))
    w /= np.linalg.norm(w, axis=1)[:, None]
    vals = np.einsum("ki,ij,kj->k", w.conj(), q.A, w).real
    if x0 == 0.0:
        return vals.min() < -1e-3 and vals.max() > 1e-3
    return bool(np.any(vals * x0 > 0))


class TestExistence:
    def test_positive_definite_cases(self):
        res = exists_disc_centered(SPHERE, np.array([1.0, 0.0], dtype=complex))
        assert res.exists and res.case == "positive-definite" and res.condition_star
        w = res.witness
        assert abs(w.conj() @ SPHERE.A @ w - 1.0) < 1e-12

        res2 = exists_disc_centered(SPHERE, np.array([-1.0, 0.0], dtype=complex))
        assert not res2.exists and res2.witness is None

    def test_indefinite_on_the_quadric(self):
        q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        res = exists_disc_centered(q, np.zeros(3, dtype=complex))
        assert res.exists
        w = res.witness
        assert abs(w.conj() @ q.A @ w) < 1e-12

    def test_agrees_with_brute_force(self, rng):
        for trial in range(12):
            n = int(rng.integers(1, 4))
            q = random_hermitian_quadric(rng, n)
            p = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            res = exists_disc_centered(q, p)
            assert res.exists == brute_force_exists(q, q.eval_r(p), rng)
            if res.exists:
                w = res.witness
                form = (w.conj() @ q.A @ w).real
                assert abs(form - q.eval_r(p)) < 1e-10 * (1 + abs(form))

    def test_admissible_center_has_a_witness(self, rng):
        # center_map_jacobians takes the witness without an existence check:
        # every center that satisfies_condition_star admits must have one
        cases = set()
        for trial in range(60):
            n = int(rng.integers(1, 5))
            kind = ("positive", "negative", None)[trial % 3]
            q = random_hermitian_quadric(rng, n, kind)
            for _ in range(4):
                p0 = complex(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 1), rng.normal())
                if not satisfies_condition_star(q, p0):
                    continue
                res = exists_disc_centered(q, np.concatenate([[p0], np.zeros(n)]))
                assert res.exists and res.condition_star
                w = res.witness
                form = (w.conj() @ q.A @ w).real
                assert abs(form - p0.real) <= 1e-12 * abs(p0.real)
                cases.add(res.case)
        assert cases == {"positive-definite", "negative-definite", "indefinite"}

    def test_condition_star(self):
        assert satisfies_condition_star(SPHERE, 1.0)
        assert not satisfies_condition_star(SPHERE, -1.0)
        assert not satisfies_condition_star(SPHERE, 1j)
        neg = Hyperquadric(n=1, A=np.array([[-1.0]]))
        assert satisfies_condition_star(neg, -0.5)
        indef = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
        assert satisfies_condition_star(indef, -3.0)
        assert not satisfies_condition_star(indef, 0.0)
