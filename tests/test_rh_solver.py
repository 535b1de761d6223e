import dataclasses
import gc
import sys
from collections import Counter

import numpy as np
import pytest

from statdisc import (
    Disc,
    DiscParams,
    Hyperquadric,
    PerturbedHypersurface,
    SolveConfig,
    center_map_jacobians,
    construct_regular_lift,
    disc_through,
    family_dimension,
    indicatrix_sample,
    solve_glued_disc,
    solve_with_homotopy,
    transport_jet,
    verify_gluing,
)
from statdisc import _kernels, rh_solver
from statdisc.errors import (
    DimensionAmbiguousError,
    InvalidInputError,
    LiftConstructionError,
    NoConvergenceError,
    TargetInversionError,
)
from statdisc.rh_solver import (
    _RCOND,
    DiscFrame,
    _boundary_samples,
    _center_disc_params,
    _center_pin,
    _certified_dimension,
    _disc_through_solution,
    _DiscSystem,
    _endpoint,
    _family_columns,
    _family_tangent,
    _invert_velocity,
    _null_count,
    _pole_zero_blocks,
    _pole_zero_chord,
    _PoleZero,
    _svd_steps,
    _system_at,
    _velocity,
    family_tangent_basis,
)

SPHERE = Hyperquadric(n=1, A=np.array([[1.0]]))
FLAT = PerturbedHypersurface(base=SPHERE)
QUARTIC = PerturbedHypersurface(base=SPHERE, epsilon=1e-3, terms={(0, 0, 4, 0): 1.0})
CFG = SolveConfig(N=128, M=32)
START = DiscParams(y0=0.1, v=[0.0], w=[1.0], a=0.25 + 0.1j)
# at M = 32 this pole sits above the closed form's truncation floor; its
# normalized frame, where the start is exact at eps = 0, removes that floor
STALLING = DiscParams(y0=0.1, v=[0.0], w=[1.0], a=0.6)
# START stalls at 1.58e-9 at every eps of this quartic at CFG: the
# homotopy runs all three schedules, all seven stages
RETRYING = PerturbedHypersurface(base=SPHERE, epsilon=0.09, terms={(0, 0, 4, 0): 1.0})


def params_to_coeffs(q, params, M):
    """Truncated coefficients of the closed-form disc."""
    return Disc(q, params, check=False).coefficients(M)


def _sweep_model(n, r, eps):
    """The normalized-frame sweep: A = diag(1, 1.5)[:n], s = (Re z1)^4, and
    the start y0 = 0.1, w = (1, 0.5)[:n], a = r e^{0.4 i}."""
    q = Hyperquadric(n=n, A=np.diag([1.0, 1.5][:n]))
    m = PerturbedHypersurface(base=q, epsilon=eps, terms={(0, 0, 4) + (0,) * (2 * n - 1): 1.0})
    return m, DiscParams(y0=0.1, v=np.zeros(n), w=[1.0, 0.5][:n], a=r * np.exp(0.4j))


# solve_glued_disc's start: the coefficients, solved as given on the
# surface, so a bare solve keeps the closed form's |a|^M truncation floor
START_COEFFS = params_to_coeffs(SPHERE, START, CFG.M)


def pin_rows(pin, constraint=None):
    """The pin h(0) = pin, and constraint, as one constraint of a bare solve:
    the reads of the identity frame, h(0) the mode-0 coefficients."""
    return DiscFrame.identity(len(pin) - 1).constraint(pin, constraint)


def counting(calls, key, original):
    """original, counting its calls in calls[key]."""

    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    return counted


def _stalled_homotopy(m, start=START, cfg=CFG):
    """Message and residual history of the NoConvergenceError that
    solve_with_homotopy raises (not the error, whose traceback holds frames)."""
    try:
        solve_with_homotopy(m, start, cfg)
    except NoConvergenceError as err:
        return str(err), err.residual_history
    raise AssertionError("expected the homotopy to stall")


def _record_stages(monkeypatch):
    """The eps of every solve_glued_disc call that solve_with_homotopy
    makes from now on."""
    stages = []
    original = rh_solver.solve_glued_disc

    def staged(stage, *args, **kwargs):
        stages.append(stage.epsilon)
        return original(stage, *args, **kwargs)

    monkeypatch.setattr(rh_solver, "solve_glued_disc", staged)
    return stages


def _count_solves(monkeypatch):
    """Counter of solve_glued_disc calls from now on, under the key "solve"."""
    calls = Counter()
    monkeypatch.setattr(
        rh_solver, "solve_glued_disc", counting(calls, "solve", rh_solver.solve_glued_disc)
    )
    return calls


def _count_jacobians(monkeypatch):
    """Counter of _DiscSystem.jacobian calls from now on, under "jacobian"."""
    calls = Counter()
    original = _DiscSystem.jacobian
    monkeypatch.setattr(_DiscSystem, "jacobian", counting(calls, "jacobian", original))
    return calls


def _count_svds(monkeypatch):
    """Counter of np.linalg.svd calls from now on, by the input's column count."""
    calls = Counter()
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls[np.shape(a)[-1]] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _stall_homotopy(monkeypatch):
    """Make every solve_with_homotopy call raise NoConvergenceError("stub stall")."""

    def stalled(*_args, **_kwargs):
        raise NoConvergenceError("stub stall", residual_history=[1.0])

    monkeypatch.setattr(rh_solver, "solve_with_homotopy", stalled)


# indefinite: a velocity or direction with w*Aw < 0 has the wrong sign for Re p0 > 0
INDEFINITE = PerturbedHypersurface(
    base=Hyperquadric(n=2, A=np.diag([1.0, -1.5])), epsilon=1e-4, terms={(0, 0, 4, 0, 0, 0): 1.0}
)


class TestSolve:
    def test_unperturbed_fixed_point(self):
        sol = solve_glued_disc(FLAT, START_COEFFS, CFG)
        assert sol.iterations == 0
        assert sol.residual_sup < 1e-14
        ref = params_to_coeffs(SPHERE, START, CFG.M)
        assert np.abs(sol.h_coeffs - ref).max() < 1e-13

    def test_perturbed_quartic(self):
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG)
        assert sol.residual_sup < 1e-11
        assert sol.iterations <= 8
        rep = verify_gluing(QUARTIC, sol.boundary_values())
        assert rep.max_residual < 1e-11
        assert rep.lift_defect < 1e-10
        assert np.max(sol.lift_defects) < 1e-10
        assert np.all(sol.lam > 0)

    def test_solution_lift_is_the_public_construction(self):
        # the lift of the solver's own samples on its grid
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG)
        lift = construct_regular_lift(QUARTIC, _boundary_samples(sol.coeffs, CFG.N))
        assert np.array_equal(sol.lam, lift.lam)
        assert np.array_equal(sol.lift_defects, lift.defects)

    def test_far_perturbation_fails(self):
        far = PerturbedHypersurface(base=SPHERE, epsilon=10.0, terms={(0, 0, 4, 0): 1.0})
        with pytest.raises((NoConvergenceError, LiftConstructionError)):
            solve_glued_disc(far, START_COEFFS, CFG)

    @pytest.mark.parametrize(
        "start, kind",
        [
            (START_COEFFS, "ndarray"),
            (START_COEFFS.tolist(), "list"),
            (Disc(SPHERE, START), "Disc"),
        ],
        ids=["coefficients", "list", "disc"],
    )
    def test_homotopy_takes_a_closed_form_start(self, monkeypatch, start, kind):
        calls = _count_solves(monkeypatch)
        message = f"^solve_with_homotopy takes a DiscParams start, got {kind}$"
        with pytest.raises(InvalidInputError, match=message):
            solve_with_homotopy(QUARTIC, start, CFG)
        assert calls["solve"] == 0

    def test_bare_solve_takes_coefficients(self):
        with pytest.raises(InvalidInputError, match="^solve_glued_disc takes a coefficient array"):
            solve_glued_disc(QUARTIC, START, CFG)
        with pytest.raises(InvalidInputError, match=r"^bad coefficient shape \(2, 25\)$"):
            solve_glued_disc(QUARTIC, START_COEFFS[:, :25], CFG)

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_bare_solve_reads_its_coefficients(self, pinned):
        # a bare solve's disc is in the identity frame: h is g, so every
        # read is the coefficients' own, pinned by constraint rows or not
        constraint = pin_rows(START_COEFFS[:, 0]) if pinned else None
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG, constraint)
        assert sol.residual_sup < CFG.tol
        c = sol.coeffs
        assert sol.frame.a == 0.0 and sol.pin_center is None
        reads = [
            (sol.h_coeffs, c),
            (sol.center(), c[:, 0]),
            (sol.velocity(), c[:, 1]),
            (sol.endpoint(), c.sum(axis=1)),
        ]
        for read, ref in reads:
            assert np.abs(read - ref).max() <= 1e-15 * np.abs(ref).max()
        for N in (CFG.N, 1024):
            ref = _boundary_samples(c, N)
            assert np.abs(sol.boundary_values(N) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_residual_certificate_on_perturbed_solution(self):
        m = PerturbedHypersurface(
            base=SPHERE, epsilon=1e-3, terms={(0, 0, 3, 0): 1.0, (0, 2, 0, 1): -0.4}
        )
        sol = solve_with_homotopy(m, START, CFG)
        rep = verify_gluing(m, sol.boundary_values())
        assert rep.max_residual < 1e-11 and rep.lift_defect < 1e-10

    def test_pinned_center_held(self):
        pin = np.array([1.0, 0.0], dtype=complex)
        p = DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.2)
        sol = solve_with_homotopy(QUARTIC, p, CFG, pin_center=pin)
        assert np.abs(sol.center() - pin).max() == 0.0
        assert sol.residual_sup < 1e-11
        # Newton holds the pin rows to rounding; residual and lift are
        # reported for the returned coefficients, on the grid of its frame
        system, _J = _system_at(QUARTIC, sol, CFG)
        assert sol.residual_sup == system.sup_norm(system.residual(system.pack(sol.coeffs)))
        lift = construct_regular_lift(system.m, _boundary_samples(sol.coeffs, CFG.N))
        assert np.array_equal(sol.lam, lift.lam)

    def test_layers_run_through_their_entry_points(self, monkeypatch):
        # A profiler attributes time to the kernel and the Hilbert transform
        # by replacing these two names wherever a statdisc module holds them,
        # and to the factorizations by replacing np.linalg.qr and
        # np.linalg.svd; a perturbed solve must reach the first three and
        # family_dimension the SVD through those names.
        from statdisc import boundary_analysis

        calls = Counter()
        for owner, attr in ((_kernels, "poly_eval"), (boundary_analysis, "hilbert_transform")):
            original = getattr(owner, attr)
            counted = counting(calls, attr, original)
            for name, mod in list(sys.modules.items()):
                if name == "statdisc" or name.startswith("statdisc."):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            monkeypatch.setattr(mod, key, counted)
        monkeypatch.setattr(np.linalg, "qr", counting(calls, "qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", counting(calls, "svd", np.linalg.svd))
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG)
        assert calls["poly_eval"] > 0 and calls["hilbert_transform"] > 0 and calls["qr"] > 0
        family_dimension(QUARTIC, sol, CFG)
        assert calls["svd"] > 0

    def test_one_linearization_serves_chord_steps(self):
        sol = solve_glued_disc(QUARTIC, START_COEFFS, SolveConfig(N=128, M=32, max_iter=1))
        assert sol.linearizations == 1 < sol.iterations
        assert sol.residual_sup < 1e-11

    @pytest.mark.parametrize("pinned", [False, True])
    def test_matches_plain_newton(self, pinned):
        constraint = pin_rows(START_COEFFS[:, 0]) if pinned else None
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG, constraint)
        system = _DiscSystem(QUARTIC, CFG, constraint)
        x = newton_oracle(system, system.pack(START_COEFFS), CFG)
        assert np.abs(sol.h_coeffs - system.unpack(x)).max() < 1e-6

    @staticmethod
    def _assert_no_reference_cycles(m, start, cfg):
        _stalled_homotopy(m, start, cfg)  # first-call caches
        gc.collect()
        gc.disable()
        try:
            _stalled_homotopy(m, start, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_failed_homotopy_leaves_no_reference_cycles(self):
        # n = 2, |a| = 0.95 at (128, 24): refused, each schedule stalling
        # before its last stage
        m, p = _sweep_model(2, 0.95, 1e-3)
        self._assert_no_reference_cycles(m, p, SolveConfig(N=128, M=24))

    def test_retried_homotopy_leaves_no_reference_cycles(self):
        self._assert_no_reference_cycles(RETRYING, START, CFG)  # all seven stages

    def test_homotopy_stages_share_derivative_stacks(self, monkeypatch):
        # all three schedules, the four-stage one included, run and stall;
        # a fresh RETRYING, so that no stacks are cached yet
        m = PerturbedHypersurface(base=SPHERE, epsilon=0.09, terms={(0, 0, 4, 0): 1.0})
        calls = Counter()
        original = _kernels.stack_derivatives
        monkeypatch.setattr(_kernels, "stack_derivatives", counting(calls, "stack", original))
        stages = _record_stages(monkeypatch)
        _stalled_homotopy(m)
        assert stages == [t * m.epsilon for t in (1.0, 0.5, 1.0, 0.25, 0.5, 0.75, 1.0)]
        assert calls["stack"] <= 2

    def test_retry_schedule_rescues_a_stalled_first_schedule(self, monkeypatch):
        # the discretization floor at this eps sits near tol: one full step
        # stalls above it, two half steps land below
        m, p = _sweep_model(2, 0.95, 1e-3)
        cfg = SolveConfig(N=256, M=48)
        frame, g0 = DiscFrame.normalized(m.base, p, cfg.M)
        with pytest.raises(NoConvergenceError):
            solve_glued_disc(m.in_frame(frame.phi), g0, cfg)  # schedule 1 alone
        stages = _record_stages(monkeypatch)
        sol = solve_with_homotopy(m, p, cfg)
        assert stages == [t * m.epsilon for t in (1.0, 0.5, 1.0)]
        assert sol.residual_sup < cfg.tol and np.max(sol.lift_defects) <= 10 * cfg.tol

    def test_exhausted_schedules_name_the_knobs(self):
        # START stalls at every eps of RETRYING at CFG, so all three schedules run
        msg, hist = _stalled_homotopy(RETRYING)
        assert msg.startswith(("damping stalled", "no convergence"))
        assert msg.endswith(
            "; every schedule stalls above tol at eps = 0.09 on the N=128, M=32 grid:"
            " raise M (and N), or lower eps"
        )
        assert hist[-1] >= CFG.tol
        # and each knob alone rescues it
        fine = SolveConfig(N=256, M=48)
        assert solve_with_homotopy(RETRYING, START, fine).residual_sup < fine.tol
        lower = RETRYING.with_epsilon(0.07)
        assert solve_with_homotopy(lower, START, CFG).residual_sup < CFG.tol

    @pytest.mark.parametrize(
        "m, start, cfg, pin, answers",
        [
            # refused: START stalls at every eps of RETRYING at CFG
            pytest.param(RETRYING, START, CFG, None, False, id="n1-eps0.09-refused"),
            # refused: n = 2, |a| = 0.95 at (128, 24)
            pytest.param(
                *_sweep_model(2, 0.95, 1e-3),
                SolveConfig(N=128, M=24),
                None,
                False,
                id="n2-a0.95-M24-refused",
            ),
            # answers: the pinned framed solve of `statdisc solve --n 2 --a 0.3
            # --w 1,0.5 --epsilon 1e-4 --term 0,0,4,0,0,0:1.0 --grid 128
            # --modes 24 --pin-center`, where J0's chord stalls
            pytest.param(
                PerturbedHypersurface(
                    base=Hyperquadric(n=2, A=np.eye(2)),
                    epsilon=1e-4,
                    terms={(0, 0, 4, 0, 0, 0): 1.0},
                ),
                DiscParams(y0=0.0, v=[0.0, 0.0], w=[1.0, 0.5], a=0.3),
                SolveConfig(N=128, M=24),
                np.array([1.0, 0.0, 0.0], dtype=complex),
                True,
                id="n2-pinned-j0-stalls",
            ),
        ],
    )
    def test_every_exact_linearization_takes_the_svd_step(
        self, monkeypatch, m, start, cfg, pin, answers
    ):
        # _svd_steps is the one dense step: each exact Jacobian is factored
        # by it once, whether the solve answers or is refused
        calls = Counter()
        monkeypatch.setattr(rh_solver, "_svd_steps", counting(calls, "svd", _svd_steps))
        jacobian = _DiscSystem.jacobian
        monkeypatch.setattr(_DiscSystem, "jacobian", counting(calls, "jacobian", jacobian))
        if answers:
            sol = solve_with_homotopy(m, start, cfg, pin_center=pin)
            assert sol.residual_sup < cfg.tol and sol.linearizations >= 2
        else:
            with pytest.raises(NoConvergenceError, match="every schedule stalls"):
                solve_with_homotopy(m, start, cfg, pin_center=pin)
        assert calls["svd"] == calls["jacobian"] > 0

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_zero_epsilon_runs_one_stage(self, monkeypatch, pinned):
        # in the normalized frame a disc past the closed form's floor is
        # exact at eps = 0 and needs no Newton step, also pinned at its center
        pin = Disc(SPHERE, STALLING).center() if pinned else None
        stages = _record_stages(monkeypatch)
        sol = solve_with_homotopy(QUARTIC.with_epsilon(0.0), STALLING, CFG, pin_center=pin)
        assert sol.iterations == sol.linearizations == 0
        assert sol.residual_sup < 1e-14
        assert stages == [0.0]

    def test_resolved_pole_passes_the_gate(self, monkeypatch):
        fine = SolveConfig(N=256, M=64)
        stages = _record_stages(monkeypatch)
        sol = solve_with_homotopy(QUARTIC, STALLING, fine)
        assert sol.residual_sup < fine.tol and stages == [QUARTIC.epsilon]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
            ({"max_iter": -1}, "max_iter must be at least 1, got -1"),
            ({"N": 128, "M": 64}, "need 0 < M < N/2"),
        ],
        ids=["max_iter=0", "max_iter=-1", "M=N/2"],
    )
    def test_bad_solver_configuration_rejected(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=message):
            SolveConfig(**kwargs)

    def test_settings_are_grid_truncation_and_cap(self):
        assert [f.name for f in dataclasses.fields(SolveConfig)] == ["N", "M", "max_iter"]
        assert SolveConfig().tol == SolveConfig.tol == 1e-11


def fd_jacobian(system, x, step=1e-6):
    """Central-difference Jacobian of system.residual: the test oracle."""
    r0 = system.residual(x)
    J = np.empty((r0.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        J[:, i] = (system.residual(xp) - system.residual(xm)) / (2.0 * step)
    return J


def newton_oracle(system, x, cfg):
    """Undamped Newton with a fresh lstsq step per iteration: the test
    oracle for the solver's chord iteration."""
    r = system.residual(x)
    for _ in range(cfg.max_iter):
        if system.sup_norm(r) < cfg.tol:
            return x
        x = x + np.linalg.lstsq(system.jacobian(x), -r, rcond=_RCOND)[0]
        r = system.residual(x)
    raise AssertionError("Newton oracle did not converge")


def _model(n, eps):
    """Hermitian form with off-diagonal entries and a perturbation whose
    Hessian couples z0 with the tangential coordinates."""
    A = np.diag([1.0, 1.5, 2.0, 2.5][:n]).astype(complex)
    for i in range(n - 1):
        A[i, i + 1] = 0.2 - 0.1j
        A[i + 1, i] = 0.2 + 0.1j
    d = 2 * n + 2

    def mono(*pairs):
        mi = [0] * d
        for k, e in pairs:
            mi[k] += e
        return tuple(mi)

    terms = {
        mono((2, 4)): 1.0,
        mono((1, 2), (3, 1)): -0.4,
        mono((0, 1), (2, 1), (d - 1, 1)): 0.3,
        mono((d - 2, 2), (d - 1, 2)): 0.5,
    }
    q = Hyperquadric(n=n, A=A)
    return q, PerturbedHypersurface(base=q, epsilon=eps, terms=terms)


def _linearization_setup(n, eps, setup):
    """System and closed-form start for one TestLinearization case."""
    q, m = _model(n, eps)
    cfg = SolveConfig(N=32, M=8)
    w = np.linspace(1.0, 0.5, n) + 0.2j
    p = DiscParams(y0=0.1, v=0.3 * np.ones(n), w=w, a=0.3 + 0.1j)
    c = params_to_coeffs(q, p, cfg.M)
    constraint = {
        "endpoint": (_endpoint, _endpoint(c) + 0.01),
        "velocity": (_velocity, 1.01 * _velocity(c)),
    }.get(setup)
    if setup != "free":  # pinned, with the transport read after the pin rows
        constraint = pin_rows(c[:, 0], constraint)
    system = _DiscSystem(m, cfg, constraint)
    return system, system.pack(c)


def _resolved_setup(n, eps, pinned):
    """System at N = 128, M = 32 and a closed-form start above its
    truncation floor (|a|^M below 1e-22)."""
    q, m = _model(n, eps)
    cfg = SolveConfig(N=128, M=32)
    p = DiscParams(y0=0.1, v=0.3 * np.ones(n), w=np.linspace(1.0, 0.5, n) + 0.2j, a=0.2 + 0.1j)
    c = params_to_coeffs(q, p, cfg.M)
    return _DiscSystem(m, cfg, pin_rows(c[:, 0]) if pinned else None), c


class TestLinearization:
    """The analytic Jacobian against the central-difference oracle, and
    the Newton factorization against lstsq."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("setup", ["free", "pinned", "endpoint", "velocity"])
    def test_matches_finite_differences(self, n, eps, setup):
        system, x = _linearization_setup(n, eps, setup)
        J = system.jacobian(x)
        ref = fd_jacobian(system, x)
        assert J.shape == ref.shape
        assert np.abs(J - ref).max() <= 1e-7 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("setup", ["free", "pinned", "endpoint", "velocity"])
    def test_factorization_matches_lstsq(self, n, eps, setup):
        # the Newton step and the chord solve of _svd_steps, the one dense
        # step: the QR of [J | -r], then the SVD of R's K x K block
        system, x = _linearization_setup(n, eps, setup)
        J, r = system.jacobian(x), system.residual(x)
        step, solve_chord = _svd_steps(J, -r)
        ref = np.linalg.lstsq(J, -r, rcond=_RCOND)[0]
        assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)
        c = np.random.default_rng(n).normal(size=r.size)
        ref = np.linalg.lstsq(J, c, rcond=_RCOND)[0]
        assert np.linalg.norm(solve_chord(c) - ref) <= 1e-5 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_svd_step_at_a_resolved_start(self, n, eps, pinned):
        # above its truncation floor the start's J has the family's 4n + 3
        # directions (2n + 1 pinned) at rounding at eps = 0; _svd_steps cuts
        # them as lstsq does
        system, c = _resolved_setup(n, eps, pinned)
        x = system.pack(c)
        J, r = system.jacobian(x), system.residual(x)
        step, solve_chord = _svd_steps(J, -r)
        if eps:  # at eps = 0 the residual is rounding
            ref = np.linalg.lstsq(J, -r, rcond=_RCOND)[0]
            assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)
        rhs = np.random.default_rng(n).normal(size=r.size)
        ref = np.linalg.lstsq(J, rhs, rcond=_RCOND)[0]
        assert np.linalg.norm(solve_chord(rhs) - ref) <= 1e-5 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_family_tangent_matches_differences(self, n):
        q, _ = _model(n, 0.0)
        p = DiscParams(y0=0.1, v=0.3 * np.ones(n), w=np.linspace(1.0, 0.5, n) + 0.2j, a=0.4 - 0.3j)
        T = Disc(q, p).family_tangent(10)
        # the real parameters (y0, Re v, Im v, Re w, Im w, Re a, Im a)
        real = np.concatenate([[p.y0], p.v.real, p.v.imag, p.w.real, p.w.imag, [p.a.real, p.a.imag]])

        def coefficients(t):
            vw = t[1:-2].reshape(2, 2, n)
            v, w = vw[:, 0] + 1j * vw[:, 1]
            params = DiscParams(y0=t[0], v=v, w=w, a=t[-2] + 1j * t[-1])
            return Disc(q, params, check=False).coefficients(10)

        h = 1e-6
        for k, e in enumerate(np.eye(real.size)):
            ref = (coefficients(real + h * e) - coefficients(real - h * e)) / (2 * h)
            assert np.abs(T[k] - ref).max() <= 1e-8 * np.abs(T).max()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_family_tangent_spans_the_family(self, n, pinned):
        # orthonormal, 4n + 3 columns, and null for the lifted equations at
        # eps = 0 on the closed form; the 2n + 2 pin rows have full rank on
        # it, as J0's constraint step (C T0)^+ needs, leaving 2n + 1 free
        system, c = _resolved_setup(n, 0.0, pinned)
        T0 = _family_tangent(system, c)
        assert T0.shape == (system.size, 4 * n + 3)
        assert np.abs(T0.T @ T0 - np.eye(T0.shape[1])).max() <= 1e-12
        J = system.jacobian(system.pack(c))
        C = system.constraint_rows
        lifted = J[: J.shape[0] - C.shape[0]]
        assert np.linalg.norm(lifted @ T0) <= 1e-12 * np.linalg.norm(J)
        assert C.shape[0] == (2 * n + 2 if pinned else 0)
        if pinned:
            S = np.linalg.svd(C @ T0, compute_uv=False)
            assert S[-1] >= 1e-3 * S[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_family_counts_and_gap(self, n):
        # criterion 7's counts: 4n + 3 free, 2n + 1 with the center pinned
        q, _ = _model(n, 0.0)
        cfg = SolveConfig(N=128, M=24)
        w = np.zeros(n, dtype=complex)
        w[0] = 1.0
        w[1:] = 0.3 - 0.1j
        p = DiscParams(y0=0.0, v=np.zeros(n), w=w, a=0.2)
        pin = np.zeros(n + 1, dtype=complex)
        pin[0] = Disc(q, p).center()[0]
        for eps in (0.0, 1e-4, 1e-3):
            terms = {(0, 0, 4) + (0,) * (2 * n - 1): 1.0}
            m = PerturbedHypersurface(base=q, epsilon=eps, terms=terms)
            for center, expect in ((None, 4 * n + 3), (pin, 2 * n + 1)):
                sol = solve_with_homotopy(m, p, cfg, pin_center=center)
                fd = family_dimension(m, sol, cfg)
                assert fd["dim"] == expect, (eps, center, fd["dim"])
                _assert_gaps(m, sol, cfg, fd)


def _assert_gaps(m, sol, cfg, fd):
    """A gap of 1e3 across the cut in the dense spectrum of the Jacobian
    that family_dimension counts, and between its bounds."""
    sv = np.linalg.svd(_system_at(m, sol, cfg)[1], compute_uv=False)
    cut = 1e-6 * sv[0]
    assert sv[sv >= cut].min() >= 1e3 * sv[sv < cut].max()
    kept_lower, null_upper = fd["gap"]
    assert kept_lower >= 1e3 * null_upper


DOMAIN_LIMIT = (1, 0.95, 1e-3)  # n, |a|, eps: no regular lift in the frame


class TestNormalizedFrame:
    """Closed-form starts solved on Phi(M) from the pole-0 disc, read on M."""

    FINE = SolveConfig(N=256, M=48)

    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("r", [0.5, 0.7, 0.9, 0.95])
    @pytest.mark.parametrize("n", [1, 2])
    def test_answers_on_M_off_the_grid(self, monkeypatch, n, r, eps):
        m, p = _sweep_model(n, r, eps)
        cfg = self.FINE
        if (n, r, eps) == DOMAIN_LIMIT:
            with pytest.raises(LiftConstructionError, match=r"lower eps or \|a\|$"):
                solve_with_homotopy(m, p, cfg)
            return
        calls = _count_jacobians(monkeypatch)
        sol = solve_with_homotopy(m, p, cfg)
        c2 = sol.frame.phi.c2
        assert sol.residual_sup < cfg.tol
        # at eps > 0 one linearization, J0's, and no dense Jacobian
        expect = (0 if eps == 0.0 else 1, 0)
        assert (sol.linearizations, calls["jacobian"]) == expect or (n, r, eps) == (2, 0.95, 1e-3)
        # the certificate is rho' = c2 rho of M on the solve grid ...
        on_grid = np.abs(m.eval_rho_many(sol.boundary_values().T)).max()
        assert c2 * on_grid <= sol.residual_sup + 1e-13
        # ... and holds on M off the grid, with the lift of M
        h = sol.boundary_values(4096)
        assert c2 * np.abs(m.eval_rho_many(h.T)).max() < 2.0 * cfg.tol
        assert np.max(construct_regular_lift(m, h).defects) <= 10.0 * cfg.tol
        if eps == 0.0:  # the closed form itself
            ref = Disc(m.base, p).boundary(4096)
            assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_domain_limit_names_the_perturbation_and_the_knobs(self):
        m, p = _sweep_model(*DOMAIN_LIMIT)
        with pytest.raises(LiftConstructionError) as err:
            solve_with_homotopy(m, p, self.FINE)
        assert str(err.value) == (
            "normalization component winds around 0; in the normalized frame of the pole"
            " |a| = 0.95 the perturbation eps*c^2*sup|s o Phi^-1 o g| reads 1.300e+00"
            " (eps = 0.001, c^2 = 0.00951): lower eps or |a|"
        )
        # the refusal leaves no reference cycle behind
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(LiftConstructionError):
                solve_with_homotopy(m, p, self.FINE)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_homotopy_is_one_bare_solve_on_the_image(self, monkeypatch, pinned):
        # one solver path: the homotopy builds the frame, then runs the
        # frame-agnostic Newton on Phi(M) from the pole-0 start
        m, p = _sweep_model(2, 0.7, 1e-3)
        cfg = SolveConfig(N=128, M=24)
        pin = Disc(m.base, p).center() if pinned else None
        frame, g0 = DiscFrame.normalized(m.base, p, cfg.M)
        calls = _count_jacobians(monkeypatch)
        bare = solve_glued_disc(m.in_frame(frame.phi), g0, cfg, constraint=frame.constraint(pin))
        stages = _record_stages(monkeypatch)
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        assert stages == [m.epsilon]
        assert np.array_equal(sol.coeffs, bare.coeffs)
        # one linearization each, J0's: no dense Jacobian
        assert sol.linearizations == bare.linearizations == 1 and calls["jacobian"] == 0
        fd = family_dimension(m, sol, cfg)
        assert fd["dim"] == (2 * m.n + 1 if pinned else 4 * m.n + 3)

    def test_pinned_disc_holds_its_pin(self):
        m, p = _sweep_model(2, 0.9, 1e-3)
        pin = Disc(m.base, p).center()
        sol = solve_with_homotopy(m, p, self.FINE, pin_center=pin)
        assert np.array_equal(sol.center(), pin)
        # the pin read is g(-conj(a)) = Phi(pin); mapped back it hits the pin
        frame = sol.frame
        back = frame.phi.inverse(frame.g_at(sol.coeffs, 0.0))
        assert np.abs(back - pin).max() <= 1e-14 * np.abs(pin).max()

    def test_reads_are_those_of_the_boundary(self):
        m, p = _sweep_model(2, 0.5, 1e-3)
        sol = solve_with_homotopy(m, p, self.FINE)
        N = 1024
        h = sol.boundary_values(N)
        taylor = np.fft.fft(h, axis=1)[:, : self.FINE.M + 1] / N
        scale = np.abs(taylor).max()
        assert np.abs(sol.h_coeffs - taylor).max() <= 1e-12 * scale
        assert np.abs(sol.center() - taylor[:, 0]).max() <= 1e-12 * scale
        assert np.abs(sol.velocity() - taylor[:, 1]).max() <= 1e-12 * scale
        assert np.abs(sol.endpoint() - h[:, 0]).max() <= 1e-12 * scale


def _real_dft(N):
    """Orthogonal real DFT (N x N): row 0 the mean, rows 2p - 1 and 2p the
    cos and sin of mode p, row N - 1 the Nyquist mode."""
    nodes = 2.0 * np.pi * np.arange(N) / N
    F = np.empty((N, N))
    F[0] = 1.0 / np.sqrt(N)
    for p in range(1, N // 2):
        F[2 * p - 1] = np.sqrt(2.0 / N) * np.cos(p * nodes)
        F[2 * p] = np.sqrt(2.0 / N) * np.sin(p * nodes)
    F[N - 1] = np.cos(N // 2 * nodes) / np.sqrt(N)
    return F


def _scatter_blocks(B, n, N, M):
    """J0 with its rho rows after _real_dft, from _pole_zero_blocks' blocks
    placed by the layout its docstring states; a block entry with no row
    or column there must be 0."""
    half, modes = N // 2, M + 1
    G = np.zeros((N + 2 * n * half, 2 * (n + 1) * modes))

    def lifted(i, mode, part):  # Re (part 0) or Im of mode < 0 of lifted component i
        return N + part * n * half + i * half + half + mode if mode < 0 else None

    def column(j, k, part):
        return part * (n + 1) * modes + j * modes + k if 0 <= k <= M else None

    for p in range(modes):
        rows = [2 * p - 1 if p else 0, 2 * p if p else None]
        rows += [lifted(i, 1 - p if i == 0 else -p, part) for i in range(n) for part in (0, 1)]
        cols = [column(0, p, part) for part in (0, 1)]
        cols += [column(j, p + 1, part) for j in range(1, n + 1) for part in (0, 1)]
        cols += [column(j, 0 if p == 1 else -1, part) for j in range(1, n + 1) for part in (0, 1)]
        r = np.array([i is not None for i in rows])
        c = np.array([k is not None for k in cols])
        assert not B[p][~r].any() and not B[p][:, ~c].any()
        G[np.ix_(np.array(rows)[r].astype(int), np.array(cols)[c].astype(int))] = B[p][np.ix_(r, c)]
    return G


def _pole_zero_case(n, signature, M):
    """A Hermitian form with off-diagonal entries (indefinite: the last
    diagonal entry negated; at n = 1 that is negative definite) and its
    pole-0 disc (uAu + 0.3 i, u zeta)."""
    A = np.diag([1.0, 1.5, 2.0][:n]).astype(complex)
    if n > 1:
        A[0, 1], A[1, 0] = 0.2 - 0.1j, 0.2 + 0.1j
    if signature == "indefinite":
        A[-1, -1] *= -1.0
    q = Hyperquadric(n=n, A=A)
    u = np.linspace(1.0, 0.5, n) + 0.2j
    return q, params_to_coeffs(q, DiscParams(y0=0.3, v=np.zeros(n), w=u, a=0.0), M)


class TestPoleZeroChord:
    """J0, the eps = 0 linearization at the pole-0 disc, built by Fourier
    blocks in closed form, and the solves whose chord starts from it."""

    GRIDS = [(128, 24), (256, 48), (16, 7)]  # the last with M = N/2 - 1

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}-{g[1]}")
    @pytest.mark.parametrize("signature", ["definite", "indefinite"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_are_the_jacobian_after_the_real_dft(self, n, signature, grid):
        N, M = grid
        q, c = _pole_zero_case(n, signature, M)
        system = _DiscSystem(q, SolveConfig(N=N, M=M))
        J = system.jacobian(system.pack(c))
        # _PoleZero's row and column maps take J to the same blocks
        j0 = _PoleZero(q.A, c[1:, 1], N, M)
        assert np.abs(j0.subtract(j0.rows(J))).max() <= 1e-13 * np.abs(J).max()
        J[:N] = _real_dft(N) @ J[:N]
        J0 = _scatter_blocks(_pole_zero_blocks(q.A, c[1:, 1], N, M), n, N, M)
        assert np.abs(J0 - J).max() <= 1e-13 * np.abs(J).max()
        # the family's tangent is null for J0
        T0 = np.linalg.qr(_family_columns(system, c))[0]
        assert np.linalg.norm(J0 @ T0) <= 1e-15 * np.linalg.norm(J0)

    @pytest.mark.parametrize("grid", [(128, 24), (16, 7)], ids=lambda g: f"{g[0]}-{g[1]}")
    @pytest.mark.parametrize("signature", ["definite", "indefinite"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_pseudo_inverse_is_pinv(self, n, signature, grid):
        N, M = grid
        q, c = _pole_zero_case(n, signature, M)
        system = _DiscSystem(q, SolveConfig(N=N, M=M))
        J = system.jacobian(system.pack(c))
        solve = _pole_zero_chord(system, c)
        P = np.column_stack([solve(e) for e in np.eye(J.shape[0])])
        ref = np.linalg.pinv(J, rcond=_RCOND)
        assert np.abs(P - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_only_the_pole_zero_disc_takes_it(self):
        q, c = _pole_zero_case(2, "definite", 24)
        system = _DiscSystem(q, SolveConfig(N=128, M=24))
        assert _pole_zero_chord(system, c) is not None
        w = c[1:, 1]
        off_pole = params_to_coeffs(q, DiscParams(y0=0.3, v=np.zeros(2), w=w, a=0.2), 24)
        shifted = c.copy()
        shifted[1:, 0] = 0.1  # v != 0
        lifted = c.copy()
        lifted[0, 0] += 1e-9  # Re h0 != uAu
        for start in (off_pole, shifted, lifted):
            assert _pole_zero_chord(system, start) is None

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_converging_framed_solve_takes_no_dense_jacobian(self, monkeypatch, n, eps, pinned):
        m, p = _sweep_model(n, 0.5, eps)
        cfg = SolveConfig(N=128, M=24)
        pin = Disc(m.base, p).center() if pinned else None
        calls = _count_jacobians(monkeypatch)
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        assert sol.residual_sup < cfg.tol and np.max(sol.lift_defects) <= 10 * cfg.tol
        assert sol.linearizations == 1 and calls["jacobian"] == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_unpinned_disc_is_the_chart_disc(self, monkeypatch, n):
        # every J0 step lies off T0 = null(J0): T0^T (x - x0) = 0
        m, p = _sweep_model(n, 0.7, 1e-3)
        cfg = SolveConfig(N=128, M=24)
        frame, g0 = DiscFrame.normalized(m.base, p, cfg.M)
        calls = _count_jacobians(monkeypatch)
        sol = solve_glued_disc(m.in_frame(frame.phi), g0, cfg)
        assert sol.residual_sup < cfg.tol and calls["jacobian"] == 0
        system = _DiscSystem(m, cfg)
        T0 = np.linalg.qr(_family_columns(system, g0))[0]
        dx = system.pack(sol.coeffs) - system.pack(g0)
        assert np.linalg.norm(T0.T @ dx) <= 1e-12 * np.linalg.norm(dx)

    def test_pinned_disc_holds_its_pin(self, monkeypatch):
        # the pin rows hold from J0's first step on: a bare solve pinned at
        # the start's mode 0 keeps it to rounding (no step writes it back),
        # and the framed pin read g(-conj(a)) = Phi(pin) holds
        m, p = _sweep_model(2, 0.7, 1e-3)
        cfg = SolveConfig(N=128, M=24)
        frame, g0 = DiscFrame.normalized(m.base, p, cfg.M)
        surface = m.in_frame(frame.phi)
        calls = _count_jacobians(monkeypatch)
        sol = solve_glued_disc(surface, g0, cfg, pin_rows(g0[:, 0]))
        assert np.abs(sol.coeffs[:, 0] - g0[:, 0]).max() <= 1e-15 * np.abs(g0[:, 0]).max()
        assert sol.residual_sup < cfg.tol and sol.linearizations == 1
        pin = Disc(m.base, p).center()
        framed = solve_with_homotopy(m, p, cfg, pin_center=pin)
        assert np.array_equal(framed.center(), pin) and framed.linearizations == 1
        read, target = frame.constraint(pin)
        assert np.abs(read(framed.coeffs) - target).max() <= 1e-14 * np.abs(target).max()
        assert calls["jacobian"] == 0

    @pytest.mark.parametrize(
        "cfg, answers",
        [(SolveConfig(N=256, M=64), True), (SolveConfig(N=128, M=32), False)],
        ids=["answers", "refuses"],
    )
    def test_stalled_j0_step_falls_back_to_the_exact_jacobian(self, monkeypatch, cfg, answers):
        # eps (Re z0)(Re z1)^2 at eps = 0.6 takes J0's first step to 0.72 of
        # the start's residual; J0's step is dropped and the exact Newton
        # runs from the start, as it does without J0, one linearization on
        m = PerturbedHypersurface(base=SPHERE, epsilon=0.6, terms={(1, 0, 2, 0): 1.0})
        g0 = params_to_coeffs(SPHERE, DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.0), cfg.M)
        system = _DiscSystem(m, cfg)
        x0 = system.pack(g0)
        r0 = system.residual(x0)
        r1 = system.residual(x0 + _pole_zero_chord(system, g0)(-r0))
        assert system.sup_norm(r1) > 0.5 * system.sup_norm(r0)

        def outcome():
            try:
                return solve_glued_disc(m, g0, cfg)
            except NoConvergenceError as err:
                return err

        calls = _count_jacobians(monkeypatch)
        sol = outcome()
        jacobians = calls["jacobian"]
        monkeypatch.setattr(rh_solver, "_pole_zero_chord", lambda *_args: None)
        exact = outcome()
        if answers:
            assert sol.residual_sup < cfg.tol
            assert np.array_equal(sol.coeffs, exact.coeffs)
            assert sol.residual_history == exact.residual_history
            assert sol.iterations == exact.iterations
            # J0 plus each exact Jacobian
            assert sol.linearizations == exact.linearizations + 1 == jacobians + 1
        else:
            assert isinstance(sol, NoConvergenceError) and isinstance(exact, NoConvergenceError)
            assert str(sol) == str(exact) and str(sol).startswith("damping stalled")
            assert sol.residual_history == exact.residual_history


class TestFamilyDimension:
    def test_unpinned_n1(self):
        sol = solve_glued_disc(FLAT, START_COEFFS, CFG)
        assert family_dimension(FLAT, sol, CFG)["dim"] == 7

    def test_pinned_n1(self):
        pin = np.array([1.0, 0.0], dtype=complex)
        p = DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.2)
        sol = solve_with_homotopy(FLAT, p, CFG, pin_center=pin)
        assert family_dimension(FLAT, sol, CFG)["dim"] == 3

    def test_perturbed_n1(self):
        sol = solve_glued_disc(QUARTIC, START_COEFFS, CFG)
        fd = family_dimension(QUARTIC, sol, CFG)
        assert fd["dim"] == 7
        _assert_gaps(QUARTIC, sol, CFG, fd)

    def test_unpinned_n2(self):
        q2 = Hyperquadric(n=2, A=np.diag([1.0, 1.5]))
        m2 = PerturbedHypersurface(base=q2)
        p2 = DiscParams(y0=0.0, v=[0.0, 0.0], w=[1.0, 0.4 - 0.2j], a=0.2 + 0.1j)
        cfg = SolveConfig(N=128, M=24)
        sol = solve_glued_disc(m2, params_to_coeffs(q2, p2, cfg.M), cfg)
        assert family_dimension(m2, sol, cfg)["dim"] == 11

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_tangent_basis_spans_the_null_space(self, n, eps, pinned):
        q, m = _model(n, eps)
        cfg = SolveConfig(N=128, M=24)
        w = np.zeros(n, dtype=complex)
        w[0] = 1.0
        w[1:] = 0.3 - 0.1j
        p = DiscParams(y0=0.0, v=np.zeros(n), w=w, a=0.2)
        pin = _center_pin(n, Disc(q, p).center()[0]) if pinned else None
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        T, system = family_tangent_basis(m, sol, cfg)
        assert T.shape[1] == family_dimension(m, sol, cfg)["dim"]
        assert np.abs(T.T @ T - np.eye(T.shape[1])).max() <= 1e-12
        J = system.jacobian(system.pack(sol.coeffs))  # the system is in the disc's frame
        assert np.linalg.norm(J @ T, 2) <= 1e-9 * np.linalg.norm(J, 2)

    def test_configuration_must_keep_the_truncation(self):
        sol = solve_glued_disc(FLAT, START_COEFFS, CFG)  # M = 32
        for linearize in (family_dimension, family_tangent_basis):
            with pytest.raises(InvalidInputError, match="M=32, configuration M=24"):
                linearize(FLAT, sol, SolveConfig(N=128, M=24))
        # another N linearizes the same coefficients off the solve grid
        fine = SolveConfig(N=256, M=32)
        assert family_dimension(FLAT, sol, fine)["dim"] == 7
        assert family_tangent_basis(FLAT, sol, fine)[0].shape == (4 * 33, 7)

    @pytest.mark.parametrize(
        "sv, message",
        [
            ([1.0, 0.5, 0.1], "no null directions found"),
            ([1.0, 1e-5, 5e-7], r"no clear spectral gap \(1.000e-05 over 5.000e-07\)"),
        ],
        ids=["no-null", "no-gap"],
    )
    def test_null_count_refusals_carry_the_spectrum(self, sv, message):
        sv = np.array(sv)
        with pytest.raises(DimensionAmbiguousError, match=message) as err:
            _null_count(sv)
        assert np.array_equal(err.value.singular_values, sv)


def _signature_model(n, signature, eps):
    """_model's perturbation on _pole_zero_case's form of that signature."""
    q, _ = _pole_zero_case(n, signature, 2)
    return PerturbedHypersurface(base=q, epsilon=eps, terms=_model(n, eps)[1].terms)


# (pinned, (n, |a|, eps)) of the normalized-frame sweep that answer: past
# the domain limit, and pinned at (2, 0.95, 1e-3), Newton stalls at 3e-11
SWEEP_CELLS = [
    (pinned, (n, r, eps))
    for pinned in (False, True)
    for n in (1, 2)
    for r in (0.5, 0.7, 0.9, 0.95)
    for eps in (0.0, 1e-4, 1e-3)
    if (n, r, eps) != DOMAIN_LIMIT and (pinned, n, r, eps) != (True, 2, 0.95, 1e-3)
]


class TestCertifiedDimension:
    """family_dimension's count from J0's blocks (_certified_dimension)
    against _null_count of the dense spectrum: the same dim, kept_lower
    <= sigma_{K-k} and null_upper >= sigma_{K-k+1}."""

    @staticmethod
    def _assert_brackets(m, sol, cfg, expect):
        """family_dimension's answer against the dense spectrum; whether
        it came from the certificate."""
        fd = family_dimension(m, sol, cfg)
        system, J = _system_at(m, sol, cfg)
        certified = _certified_dimension(system, sol.coeffs, J)
        assert certified in (None, fd)
        sv = np.linalg.svd(J, compute_uv=False)
        k = _null_count(sv)
        kept_lower, null_upper = fd["gap"]
        assert fd["dim"] == k == expect
        # up to the SVDs' rounding, about K u sigma_1 (at eps = 0 E is
        # rounding and kept_lower is sigma_{K-k} itself)
        ulp = 1e-13 * sv[0]
        assert kept_lower <= sv[-k - 1] + ulp and null_upper >= sv[-k] - ulp
        return certified is not None

    @pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("signature", ["definite", "indefinite"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_bounds_bracket_the_dense_spectrum(self, pinned, n, signature, eps):
        m = _signature_model(n, signature, eps)
        cfg = SolveConfig(N=128, M=24)
        p = DiscParams(y0=0.1, v=np.zeros(n), w=np.linspace(1.0, 0.5, n) + 0.2j, a=0.2 + 0.1j)
        pin = Disc(m.base, p).center() if pinned else None
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        assert self._assert_brackets(m, sol, cfg, 2 * n + 1 if pinned else 4 * n + 3)

    @pytest.mark.parametrize("pinned, cell", SWEEP_CELLS, ids=str)
    def test_bounds_bracket_on_the_sweep(self, pinned, cell):
        m, p = _sweep_model(*cell)
        r = cell[1]
        cfg = TestNormalizedFrame.FINE
        pin = Disc(m.base, p).center() if pinned else None
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        certified = self._assert_brackets(m, sol, cfg, 2 * m.n + 1 if pinned else 4 * m.n + 3)
        # the bounds hold while |J0^+ E|_F stays small: eps c2 sup|s o Phi^-1|
        # grows with |a|, and the pinned bound loses h / g = |C|_2 / sigma_min(C T0)
        assert certified or r > (0.5 if pinned else 0.7)

    def test_eta_past_one_falls_back_to_the_dense_count(self):
        # a continuation-benchmark input (seed 2, slot 15) whose E is too
        # large for the bounds: |J0^+ E|_F = 1.63
        q = Hyperquadric(n=1, A=np.array([[-1.4293037154587696]]))
        terms = {(0, 3, 1, 1): -3699.3063178137895, (1, 1, 2, 2): 3582.1543745735107}
        m = PerturbedHypersurface(base=q, epsilon=1e-3, terms=terms)
        w = -0.4064839099280391 + 0.37171050960888485j
        p = DiscParams(y0=0.0, v=[0.0], w=[w], a=0.007174008718983911 - 0.030908222406907004j)
        cfg = SolveConfig(N=256, M=48)
        sol = solve_with_homotopy(m, p, cfg)
        system, J = _system_at(m, sol, cfg)
        j0 = _PoleZero(q.A, sol.coeffs[1:, 1], cfg.N, cfg.M)
        assert np.linalg.norm(j0.inv @ j0.subtract(j0.rows(J))) > 1.0
        assert _certified_dimension(system, sol.coeffs, J) is None
        sv = np.linalg.svd(J, compute_uv=False)
        assert family_dimension(m, sol, cfg) == {"dim": 7, "gap": (sv[-8], sv[-7])}

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_certified_count_takes_no_svd_of_j(self, monkeypatch, pinned):
        m, p = _sweep_model(2, 0.5, 1e-3)
        cfg = SolveConfig(N=128, M=24)
        K = 2 * (m.n + 1) * (cfg.M + 1)
        pin = Disc(m.base, p).center() if pinned else None
        sol = solve_with_homotopy(m, p, cfg, pin_center=pin)
        calls = _count_svds(monkeypatch)
        assert family_dimension(m, sol, cfg)["dim"] == (5 if pinned else 11)
        assert calls and calls[K] == 0
        # the fallback takes the dense SVD of J
        monkeypatch.setattr(rh_solver, "_certified_dimension", lambda *_args: None)
        assert family_dimension(m, sol, cfg)["dim"] == (5 if pinned else 11)
        assert calls[K] == 1


class TestCenterMaps:
    def test_inadmissible_center_refused_before_any_solve(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        with pytest.raises(InvalidInputError, match="^center fails the admissibility"):
            center_map_jacobians(QUARTIC, -1.0)
        assert calls["solve"] == 0

    def test_invertible_at_unit_center(self):
        cm = center_map_jacobians(FLAT, 1.0)
        assert cm.endpoint_invertible
        assert cm.velocity_injective
        assert cm.sv_endpoint[-1] > 0.1

    def test_endpoint_degenerates_toward_quadric(self):
        svs = [center_map_jacobians(FLAT, x0).sv_endpoint[-1] for x0 in (1.0, 0.1, 0.01)]
        assert svs[0] > svs[1] > svs[2]

    def test_differential_at_origin_pole(self):
        # the differential D = J_endpoint pinv(J_velocity) of the circular
        # representation does not depend on the basis of the family; at
        # (w, a) = (1, 0) it maps the velocity (Re v0, Re v1, Im v0, Im v1)
        # to the endpoint (Im z0, Re z1, Im z1) as below, c = 1 / (2 sqrt(x0))
        for x0 in (1.0, 0.5, 0.1):
            cm = center_map_jacobians(FLAT, x0)
            D = cm.J_endpoint @ np.linalg.pinv(cm.J_velocity)
            c = 1.0 / (2.0 * np.sqrt(x0))
            expect = [[0, 0, 1, 0], [c, 0, 0, 0], [0, 0, c, 1]]
            assert np.abs(D - expect).max() < 1e-8, x0

    def test_perturbed_jacobians(self):
        cfg = SolveConfig(N=128, M=32)
        cm = center_map_jacobians(QUARTIC, 1.0, cfg)
        assert cm.endpoint_invertible and cm.velocity_injective


class TestIndicatrix:
    def test_inadmissible_center_refused_before_any_solve(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        with pytest.raises(InvalidInputError, match="^center fails the admissibility"):
            indicatrix_sample(QUARTIC, -1.0, 4, CFG)
        assert calls["solve"] == 0

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_wrong_sign_directions_are_error_rows(self, monkeypatch, eps):
        # under an indefinite A some drawn directions have w*Aw < 0; each is
        # reported in its row and the run goes on (no solve at eps = 0)
        _stall_homotopy(monkeypatch)
        pts = indicatrix_sample(INDEFINITE.with_epsilon(eps), 1.0, 8, CFG, seed=3)
        wrong = [p for p in pts if p.params is None]
        assert 0 < len(wrong) < len(pts)
        for p in wrong:
            assert p.error == "direction has the wrong sign for this center"
            assert p.velocity is None and np.isnan(p.residual)
        for p in pts:
            if p.params is not None:
                assert (p.error is None) == (eps == 0.0)

    def test_failed_solves_are_error_rows(self, monkeypatch):
        _stall_homotopy(monkeypatch)
        pts = indicatrix_sample(QUARTIC, 1.0, 3, CFG, seed=11)
        assert len(pts) == 3
        for p in pts:
            assert p.error == "stub stall" and p.params is not None
            assert p.velocity is None and np.isnan(p.residual)

    def test_flat_cloud_closed_form(self):
        pts = indicatrix_sample(FLAT, 1.0, 8, CFG, seed=11)
        ok = [p for p in pts if p.velocity is not None]
        assert len(ok) == 8
        for p in ok:
            a, w = p.params.a, p.params.w
            assert abs(p.velocity[0] - 2.0 * a * 1.0) < 1e-12
            assert np.abs(p.velocity[1:] - w).max() < 1e-12

    def test_zero_pole_samples_have_flat_first_component(self):
        params = _center_disc_params(SPHERE, 1.0 + 0j, 0.0, np.array([0.6 + 0.8j]))
        vel = Disc(SPHERE, params, check=False).velocity()
        assert abs(vel[0]) < 1e-14
        assert abs(abs(vel[1]) - 1.0) < 1e-12  # |w| = 1 for x0 = 1, a = 0

    def test_spec_half_pole_value(self):
        params = _center_disc_params(SPHERE, 1.0 + 0j, 0.5, np.array([1.0 + 0j]))
        vel = Disc(SPHERE, params, check=False).velocity()
        assert abs(vel[0] - 1.0) < 1e-14
        assert abs(vel[1] - np.sqrt(3.0) / 2.0) < 1e-14

    def test_perturbed_cloud_continuity(self):
        cfg = SolveConfig(N=128, M=40)
        flat = indicatrix_sample(FLAT, 1.0, 6, cfg, seed=5)
        pert = indicatrix_sample(QUARTIC, 1.0, 6, cfg, seed=5)
        pairs = [
            (a.velocity, b.velocity)
            for a, b in zip(flat, pert)
            if a.velocity is not None and b.velocity is not None
        ]
        assert len(pairs) >= 5
        scale = max(np.linalg.norm(v0) for v0, _ in pairs)
        for v0, v1 in pairs:
            assert np.linalg.norm(v1 - v0) < 10 * QUARTIC.epsilon * max(1.0, scale)


def _assert_point_over(m, out, z, tol=1e-9):
    """out is the point of m over z: the same Im z0 and z_a, and rho(out) = 0."""
    assert abs(out[0].imag - z[0].imag) < tol
    assert np.abs(out[1:] - z[1:]).max() < tol
    assert abs(m.eval_rho_many(out[None])[0]) < tol


QUADRIC_N2 = Hyperquadric(n=2, A=np.eye(2))
Z_N2 = np.array([2.0, 1.0, 1.0], dtype=complex)  # on QUADRIC_N2


class TestTransport:
    def test_identity(self):
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        out = transport_jet(FLAT, FLAT, 1.0, np.eye(2), z)
        assert np.abs(out - z).max() < 1e-9

    def test_rotation_automorphism(self):
        th = 0.8
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        dF = np.diag([1.0, np.exp(1j * th)])
        out = transport_jet(FLAT, FLAT, 1.0, dF, z)
        assert np.abs(out - np.array([z[0], np.exp(1j * th) * z[1]])).max() < 1e-9

    def test_perturbed_identity_within_epsilon(self):
        cfg = SolveConfig(N=128, M=40)
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        out = transport_jet(QUARTIC, QUARTIC, 1.0, np.eye(2), z, cfg=cfg)
        assert np.abs(out - z).max() < 10 * QUARTIC.epsilon
        # z lies on the quadric; the transported disc ends on M, at the
        # point with the same Im z0 and z_a
        _assert_point_over(QUARTIC, out, z)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_invariant_rotation(self, eps):
        # s = |z1|^4 is invariant under z1 -> e^{i th} z1, so the rotation
        # is an automorphism of M and transport is exact
        m = PerturbedHypersurface(
            base=SPHERE, epsilon=eps, terms={(0, 0, 4, 0): 1.0, (0, 0, 2, 2): 2.0, (0, 0, 0, 4): 1.0}
        )
        dF = np.diag([1.0, np.exp(0.8j)])
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        out = transport_jet(m, m, 1.0, dF, z, cfg=SolveConfig(N=128, M=40))
        _assert_point_over(m, out, dF @ z)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_dilation_between_perturbations(self, eps):
        # F = (t^2 z0, t z1) takes the quartic at eps to the quartic at
        # eps / t^2 (rho o F = t^2 rho) and the center (1, 0) to (t^2, 0)
        t = 1.3
        src = QUARTIC.with_epsilon(eps)
        tgt = QUARTIC.with_epsilon(eps / t**2)
        dF = np.diag([t**2, t])
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        out = transport_jet(src, tgt, 1.0, dF, z, p0_target=t**2, cfg=SolveConfig(N=128, M=40))
        _assert_point_over(tgt, out, dF @ z)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_invariant_rotation_n2(self, eps):
        # |z1|^4 is invariant under z1 -> e^{i th} z1; the pinned systems
        # stack transport rows, which leave the start's tangent no column
        terms = {(0, 0, 4, 0, 0, 0): 1.0, (0, 0, 2, 2, 0, 0): 2.0, (0, 0, 0, 4, 0, 0): 1.0}
        m = PerturbedHypersurface(base=QUADRIC_N2, epsilon=eps, terms=terms)
        dF = np.diag([1.0, np.exp(0.8j), 1.0])
        out = transport_jet(m, m, 1.0, dF, Z_N2, cfg=CFG)
        _assert_point_over(m, out, dF @ Z_N2)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_dilation_between_perturbations_n2(self, eps):
        # F = (t^2 z0, t z_a) takes the quartic at eps to the quartic at eps / t^2
        t = 1.3
        src = PerturbedHypersurface(base=QUADRIC_N2, epsilon=eps, terms={(0, 0, 4, 0, 0, 0): 1.0})
        tgt = src.with_epsilon(eps / t**2)
        dF = np.diag([t**2, t, t])
        out = transport_jet(src, tgt, 1.0, dF, Z_N2, p0_target=t**2, cfg=CFG)
        _assert_point_over(tgt, out, dF @ Z_N2)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_pin_and_transport_rows_in_one_system(self, eps):
        # each solve holds two constraint pairs, the pin and a transport
        # read; the returned disc holds the pin exactly and meets the read
        m = QUARTIC.with_epsilon(eps)
        cfg = SolveConfig(N=128, M=40)
        pin = _center_pin(1, 1.0)
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        src, u = _disc_through_solution(m, 1.0 + 0j, disc_through(m.base, 1.0, z), z, cfg)
        assert np.array_equal(src.center(), pin)
        assert np.abs(_endpoint(src.h_coeffs) - _endpoint(z[:, None])).max() < 1e-10
        tgt, _end = _invert_velocity(m, 1.0 + 0j, u, cfg, 10.0 * eps)
        assert np.array_equal(tgt.center(), pin)
        assert np.abs(tgt.velocity() - u).max() < 1e-10

    @pytest.mark.parametrize(
        "m, z, eps",
        [pytest.param(QUARTIC, [2.0, np.sqrt(2.0)], eps, id=f"{eps}") for eps in (1e-4, 1e-3)]
        + [
            # z on Q over z_a = (1, 0.5): z0 = 1 + 0.25 A_22
            pytest.param(
                PerturbedHypersurface(
                    base=Hyperquadric(n=2, A=np.diag([1.0, a22])),
                    terms={(0, 0, 4, 0, 0, 0): 1.0, (0, 0, 0, 0, 2, 2): 0.5},
                ),
                [1.0 + 0.25 * a22, 1.0, 0.5],
                eps,
                id=f"n2-A22={a22:g}-{eps}",
            )
            for a22 in (1.0, -1.0)
            for eps in (1e-4, 1e-3)
        ],
    )
    def test_circular_representation(self, m, z, eps):
        # the paper's circular representation Phi takes the endpoint h(1) of
        # the pinned disc h to h'(0); the pinned disc through h(e^{i th}) is
        # h(e^{i th} zeta), so Phi(h(e^{i th})) = e^{i th} h'(0) at every eps
        m = m.with_epsilon(eps)
        A = m.base.A
        cfg = SolveConfig(N=128, M=40)
        z = np.array(z, dtype=complex)
        h, u = _disc_through_solution(m, 1.0 + 0j, disc_through(m.base, 1.0, z), z, cfg)
        modes = np.arange(h.h_coeffs.shape[1])
        for th in (0.8, 2.0):
            rotated = h.h_coeffs * np.exp(1j * th * modes)
            p = rotated.sum(axis=1)  # h(e^{i th}), on M
            # the solve reads Im z0 and z_a, and starts from the point of Q over p
            over = np.array([np.real(p[1:].conj() @ A @ p[1:]) + 1j * p[0].imag, *p[1:]])
            g, v = _disc_through_solution(m, 1.0 + 0j, disc_through(m.base, 1.0, over), over, cfg)
            assert np.abs(g.h_coeffs - rotated).max() < 1e-9
            assert np.abs(v - np.exp(1j * th) * u).max() < 1e-9
        # round trip: the velocity chart inverts Phi
        _g, end = _invert_velocity(m, 1.0 + 0j, u, cfg, 10.0 * eps)
        assert np.abs(end - h.endpoint()).max() < 1e-9

    @pytest.mark.parametrize("target", [0.0, 1j, -1.0], ids=["zero", "imaginary", "negative"])
    def test_inadmissible_target_center_refused_before_any_solve(self, monkeypatch, target):
        # Re p0 = 0 would divide by zero in the velocity chart; Re p0 < 0
        # has no disc on the sphere, so every schedule would fail
        calls = Counter()
        monkeypatch.setattr(
            rh_solver, "solve_glued_disc", counting(calls, "solve", rh_solver.solve_glued_disc)
        )
        z = np.array([2.0, np.sqrt(2.0)], dtype=complex)
        with pytest.raises(InvalidInputError, match="^target center fails the admissibility"):
            transport_jet(QUARTIC, QUARTIC, 1.0, np.eye(2), z, p0_target=target, cfg=CFG)
        assert calls["solve"] == 0

    def test_off_indicatrix_velocity_rejected(self):
        with pytest.raises(TargetInversionError):
            _invert_velocity(FLAT, 1.0 + 0j, np.array([0.5, 2.0 + 0j]), CFG, 1e-8)

    @pytest.mark.parametrize(
        "m, u, message",
        [
            (QUARTIC, [0.5, 1e-13], "^velocity has vanishing tangential part$"),
            (QUARTIC, [2.0, 1.0], r"^velocity needs \|a\| = 1.0 outside the family$"),
            (FLAT, [0.5, 2.0], "^velocity is off the indicatrix by 3.267e\\+00; cannot invert$"),
            (
                INDEFINITE,
                [0.2, 0.3, 1.0],
                r"^velocity has w\*Aw = -1.410e\+00, the wrong sign for Re p0 = 1;"
                " no disc of the family has it$",
            ),
        ],
        ids=["tangential", "pole", "off-indicatrix", "wrong-sign"],
    )
    def test_velocity_refused_before_any_solve(self, monkeypatch, m, u, message):
        calls = _count_solves(monkeypatch)
        with pytest.raises(TargetInversionError, match=message):
            _invert_velocity(m, 1.0 + 0j, np.array(u, dtype=complex), CFG, 1e-8)
        assert calls["solve"] == 0

    def test_failed_inversion_names_the_indicatrix_distance(self, monkeypatch):
        # |u_a|^2 / (1 - |a|^2) = 1.44 / 0.9375 against Re p0 = 1
        _stall_homotopy(monkeypatch)
        with pytest.raises(TargetInversionError) as err:
            _invert_velocity(QUARTIC, 1.0 + 0j, np.array([0.5, 1.2 + 0j]), CFG, 1e-8)
        assert str(err.value) == (
            "velocity inversion failed (5.360e-01 off the eps = 0 indicatrix): stub stall"
        )
