"""Acceptance suite: one test per release criterion.

Each test runs its criterion at the stated tolerance, enforces the
stated runtime budget, and prints a single PASS line with the measured
numbers (run pytest with -s to see them).
"""

import time

import numpy as np
import pytest

from statdisc import (
    ClosedFormLift,
    DiscParams,
    Hyperquadric,
    LiftParams,
    PerturbedHypersurface,
    SolveConfig,
    center_map_jacobians,
    circle_nodes,
    construct_regular_lift,
    disc_through,
    family_dimension,
    holomorphic_defect,
    invert_disc,
    make_disc,
    maslov_index,
    partial_indices,
    solve_with_homotopy,
    toeplitz_kernel_indices,
    transport_jet,
    verify_reduction_chain,
)
from statdisc.errors import LiftConstructionError, NotReachableError
from statdisc.rh_solver import _system_at

from conftest import lift_zero_modulus, random_disc_params, random_hermitian_quadric

SPHERE = Hyperquadric(n=1, A=np.array([[1.0]]))


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.name}: {self.elapsed:.2f}s (budget {self.seconds:.0f}s)")
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {self.elapsed:.2f}s"
            )
        else:
            print(f"FAIL {self.name} after {self.elapsed:.2f}s")
        return False


def test_criterion_1_gluing_identity():
    rng = np.random.default_rng(101)
    with Budget("criterion 1 (gluing identity)", 5.0):
        for k in range(200):
            n = 1 + k % 3
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n)
            d = make_disc(q, p)
            res = np.abs(q.eval_r_many(d.boundary(256).T)).max()
            assert res < 1e-10 * (1.0 + p.norm() ** 2)


def test_criterion_2_parametrization_roundtrip():
    rng = np.random.default_rng(102)
    with Budget("criterion 2 (roundtrip)", 5.0):
        for k in range(200):
            n = 1 + k % 3
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n)
            rec = invert_disc(q, make_disc(q, p).boundary(256))
            assert abs(rec.y0 - p.y0) < 1e-8
            assert np.abs(rec.v - p.v).max() < 1e-8
            assert np.abs(rec.w - p.w).max() < 1e-8
            assert abs(rec.a - p.a) < 1e-8


def test_criterion_3_lift_validity():
    rng = np.random.default_rng(103)
    zeta = circle_nodes(256)
    with Budget("criterion 3 (lift validity)", 10.0):
        done = 0
        while done < 50:
            n = 1 + done % 2
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, a_max=0.55, centered=done % 3 == 0)
            d = make_disc(q, p)
            h = d.boundary(256)
            lift = ClosedFormLift(q, LiftParams(disc=p, b=1.0))
            hs = lift.boundary(256)
            grad = q.grad_r_many(h.T).T
            ratio = hs / grad
            assert np.abs(ratio.imag).max() < 1e-10 * np.abs(ratio).max()
            defect = np.max(holomorphic_defect(zeta[None, :] * hs))
            assert defect < 1e-10
            try:
                built = construct_regular_lift(PerturbedHypersurface(base=q), h)
            except LiftConstructionError:
                # off-center disc whose lift's last component vanishes inside
                assert lift_zero_modulus(q, p) < 1.0
                continue
            mask = np.abs(hs) > 1e-6 * np.abs(hs).max()
            rr = (built.lam * built.grad.T)[mask] / hs[mask]
            assert np.abs(rr.imag).max() < 1e-9 * np.abs(rr).max()
            assert rr.real.min() > 0.0
            done += 1


def test_criterion_4_maslov_index():
    rng = np.random.default_rng(104)
    zeta = circle_nodes(256)
    with Budget("criterion 4 (Maslov index)", 10.0):
        for n in (1, 2, 3):
            q = random_hermitian_quadric(rng, n)
            for _ in range(30):
                p = random_disc_params(rng, n, centered=True)
                B = build_closed(q, p)
                assert maslov_index(B) == 2 * n + 2
                det = np.linalg.det(B.samples)
                assert np.abs(det - (-1.0) ** n * zeta ** (2 * n + 2)).max() < 1e-12


def build_closed(q, p, N=256):
    from statdisc import build_B

    return build_B(q, p, source="closed_form", N=N)


def test_criterion_5_partial_indices():
    rng = np.random.default_rng(105)
    with Budget("criterion 5 (partial indices)", 60.0):
        for k in range(50):
            n = 1 + k % 2
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, centered=True)
            B = build_closed(q, p)
            pi = partial_indices(B)
            assert min(pi.kappa) >= 0
            assert pi.total == 2 * n + 2
            assert pi == toeplitz_kernel_indices(B, order=64)


def test_criterion_6_reduction_replay():
    rng = np.random.default_rng(106)
    with Budget("criterion 6 (reduction replay)", 60.0):
        for k in range(20):
            n = 1 + k % 2
            q = random_hermitian_quadric(rng, n)
            p = random_disc_params(rng, n, centered=True, a_max=0.55)
            rep = verify_reduction_chain(q, p)
            assert rep.kappa_gradient == rep.kappa_closed
            assert rep.det_winding == 2 * n + 2
            assert len({st["det_winding"] for st in rep.steps}) == 1


def test_criterion_7_family_dimension():
    with Budget("criterion 7 (family dimension)", 120.0):
        for n, expect_free, expect_pinned in ((1, 7, 3), (2, 11, 5)):
            A = np.diag([1.0] * n) if n == 1 else np.diag([1.0, 1.5])
            q = Hyperquadric(n=n, A=A)
            cfg = SolveConfig(N=128, M=24 if n == 2 else 32)
            w = np.zeros(n, dtype=complex)
            w[0] = 1.0
            if n == 2:
                w[1] = 0.3 - 0.1j
            p = DiscParams(y0=0.0, v=np.zeros(n), w=w, a=0.2)
            pin = np.zeros(n + 1, dtype=complex)
            pin[0] = make_disc(q, p).center()[0]
            for eps in (0.0, 1e-4, 1e-3):
                terms = {(0, 0, 4) + (0,) * (2 * n - 1): 1.0}
                m = PerturbedHypersurface(base=q, epsilon=eps, terms=terms)
                sol = solve_with_homotopy(m, p, cfg)
                fd = family_dimension(m, sol, cfg)
                assert fd["dim"] == expect_free, (n, eps, fd["dim"])
                _assert_gap(m, sol, cfg, fd)
                sol_p = solve_with_homotopy(m, p, cfg, pin_center=pin)
                fd_p = family_dimension(m, sol_p, cfg)
                assert fd_p["dim"] == expect_pinned, (n, eps, fd_p["dim"])
                _assert_gap(m, sol_p, cfg, fd_p)


def _assert_gap(m, sol, cfg, fd, cut=1e-6, ratio=1e3):
    """The gap across the cut in the dense spectrum of the Jacobian that
    family_dimension counts, and between its bounds (kept_lower, null_upper)."""
    sv = np.linalg.svd(_system_at(m, sol, cfg)[1], compute_uv=False)
    top = sv[0]
    kept = sv[sv >= cut * top].min()
    dropped = sv[sv < cut * top].max()
    assert kept >= ratio * dropped
    kept_lower, null_upper = fd["gap"]
    assert kept_lower >= ratio * null_upper


def test_criterion_8_fixed_center_diffeomorphisms():
    with Budget("criterion 8 (fixed-center maps)", 60.0):
        for x0 in (1.0, 0.5):
            cm = center_map_jacobians(PerturbedHypersurface(base=SPHERE), x0)
            assert cm.endpoint_invertible
            assert cm.velocity_injective
        mins = [
            center_map_jacobians(PerturbedHypersurface(base=SPHERE), x0).sv_endpoint[-1]
            for x0 in (1.0, 0.1, 0.01)
        ]
        assert mins[0] > mins[1] > mins[2]


def test_criterion_9_reachability():
    # on the positive-definite model every point of Q has Re z0 >= 0, so
    # the unreachable side of "succeeds exactly when Re z0 Re p0 > 0" is
    # the Re z0 = 0 slice (z_a = 0)
    rng = np.random.default_rng(109)
    with Budget("criterion 9 (reachability)", 5.0):
        for k in range(100):
            y = float(rng.normal())
            if k % 5 == 0:
                z = np.array([1j * y, 0.0], dtype=complex)
                assert abs(SPHERE.eval_r(z)) < 1e-14
                with pytest.raises(NotReachableError):
                    disc_through(SPHERE, 1.0, z)
                continue
            z1 = rng.normal() + 1j * rng.normal()
            if abs(z1) < 0.05:
                z1 = 0.1 + 0j
            z = np.array([abs(z1) ** 2 + 1j * y, z1])
            assert abs(SPHERE.eval_r(z)) < 1e-12 * (1 + abs(z[0]))
            assert z[0].real * 1.0 > 0
            p = disc_through(SPHERE, 1.0, z)
            d = make_disc(SPHERE, p)
            assert np.abs(d.at(np.array(1.0 + 0.0j)) - z).max() < 1e-10


def test_criterion_10_jet_transport():
    rng = np.random.default_rng(110)
    flat = PerturbedHypersurface(base=SPHERE)
    quartic = PerturbedHypersurface(base=SPHERE, epsilon=1e-3, terms={(0, 0, 4, 0): 1.0})
    cfg = SolveConfig(N=128, M=40)
    with Budget("criterion 10 (jet transport)", 120.0):
        for _ in range(20):
            z1 = 0.4 + 1.2 * rng.random() + 1j * rng.normal() * 0.4
            z = np.array([abs(z1) ** 2 + 1j * rng.normal() * 0.5, z1])
            out = transport_jet(flat, flat, 1.0, np.eye(2), z)
            assert np.abs(out - z).max() < 1e-9
        th = 0.8
        dF = np.diag([1.0, np.exp(1j * th)])
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        out = transport_jet(flat, flat, 1.0, dF, z)
        assert np.abs(out - np.array([z[0], np.exp(1j * th) * z[1]])).max() < 1e-9
        out_eps = transport_jet(quartic, quartic, 1.0, np.eye(2), z, cfg=cfg)
        assert np.abs(out_eps - z).max() < 10.0 * quartic.epsilon
