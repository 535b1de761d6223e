"""The benchmark's tracer patches library entry points by name; a rename
must fail here rather than in a benchmark run."""

from pathlib import Path

import numpy as np

from statdisc import DiscParams, Hyperquadric, PerturbedHypersurface, SolveConfig, rh_solver


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer

    q = Hyperquadric(n=1, A=np.array([[1.0]]))
    m = PerturbedHypersurface(base=q, epsilon=1e-4, terms={(0, 0, 4, 0): 1.0})
    cfg = SolveConfig(N=64, M=16)
    tracer = Tracer()
    try:
        tracer.install()
        sol = rh_solver.solve_with_homotopy(m, DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.0), cfg)
        rh_solver.family_dimension(m, sol, cfg)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("rh_solver.solve_with_homotopy", "rh_solver.residual", "rh_solver.jacobian",
                 "rh_solver.family_dimension", "quadric.kernel"):
        assert name in names, name
    assert not hasattr(rh_solver.solve_with_homotopy, "__wrapped__")
