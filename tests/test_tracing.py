"""The benchmark's tracer patches library entry points by name; a rename
must fail here rather than in a benchmark run."""

from pathlib import Path

import numpy as np
import pytest

from statdisc import (
    DiscParams,
    Hyperquadric,
    PerturbedHypersurface,
    SolveConfig,
    indices,
    rh_solver,
)
from statdisc.errors import NoConvergenceError


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    return tracing


def test_tracer_hooks_resolve(tracing):
    q = Hyperquadric(n=1, A=np.array([[1.0]]))
    m = PerturbedHypersurface(base=q, epsilon=1e-4, terms={(0, 0, 4, 0): 1.0})
    cfg = SolveConfig(N=64, M=16)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        sol = rh_solver.solve_with_homotopy(m, DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.0), cfg)
        rh_solver.family_dimension(m, sol, cfg)
        # family_dimension's sample tier takes no dense J; the tangent basis does
        rh_solver.family_tangent_basis(m, sol, cfg)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("rh_solver.solve_with_homotopy", "rh_solver.residual", "rh_solver.jacobian",
                 "rh_solver.family_dimension", "quadric.kernel"):
        assert name in names, name
    assert not hasattr(rh_solver.solve_with_homotopy, "__wrapped__")


def test_indices_hooks_resolve(tracing):
    q = Hyperquadric(n=2, A=np.diag([1.0, -1.0]))
    p = DiscParams(y0=0.0, v=[0.0, 0.0], w=[1.0, 0.5], a=0.4 + 0.2j)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for source in ("closed_form", "gradient"):  # by position: the tracer reads args[2]
            indices.partial_indices(indices.build_B(q, p, source))
        indices.verify_reduction_chain(q, p)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    for name in ("indices.build_B.closed_form", "indices.build_B.gradient",
                 "indices.partial_indices", "indices.birkhoff", "indices.root_extraction",
                 "indices.verify_reduction_chain"):
        assert name in names, name
    assert not any(span[tracing.ERROR] for span in tracer.spans)
    assert not hasattr(indices.build_B, "__wrapped__")


def test_refused_homotopy_records_one_failed_solve(tracing):
    # this quartic stalls at every eps on the grid, so the step and its
    # retry through eps / 2 run: three solves, the step and the retry's
    # last stage failed, and schedules_tried reads two
    q = Hyperquadric(n=1, A=np.array([[1.0]]))
    m = PerturbedHypersurface(base=q, epsilon=0.09, terms={(0, 0, 4, 0): 1.0})
    start = DiscParams(y0=0.1, v=[0.0], w=[1.0], a=0.25 + 0.1j)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with pytest.raises(NoConvergenceError, match="every schedule stalls"):
            rh_solver.solve_with_homotopy(m, start, SolveConfig(N=128, M=32))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    solves = [sp for sp in spans if sp[tracing.NAME] == "rh_solver.solve_glued_disc"]
    assert len(solves) == 3
    failed = [sp for sp in solves if sp[tracing.ERROR]]
    assert len(failed) == 2 and {sp[tracing.ERROR] for sp in failed} == {"NoConvergenceError"}
    for sp in solves:
        assert spans[sp[tracing.PARENT]][tracing.NAME] == "rh_solver.solve_with_homotopy"
    counts = tracing.solver_counts(spans)
    assert counts["schedules_tried"] == 2 and counts["homotopy_ok"] == 0


def test_package_names_follow_the_tracer(tracing):
    # statdisc looks a public name up in its submodule on every read and
    # keeps no copy, so it never hands out a wrapper after uninstall
    import statdisc

    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = statdisc.solve_with_homotopy
        assert traced is rh_solver.solve_with_homotopy
        assert hasattr(traced, "__wrapped__")
    finally:
        tracer.uninstall()
    assert statdisc.solve_with_homotopy is rh_solver.solve_with_homotopy
    assert not hasattr(statdisc.solve_with_homotopy, "__wrapped__")
