"""Spans around the library's layer entry points, recorded from outside.

`Tracer.install` replaces each entry point with a wrapper, in every
loaded `statdisc` module that holds it (modules import functions by
name, so one function can sit in several namespaces), and on the class
for methods.  `uninstall` puts the originals back.  Spans stay in memory
as (name, start, end, parent, operation, error) rows; `layer_metrics`
turns them into self times and counts once the run is over.
"""

import sys
import time
from collections import Counter, defaultdict

import numpy as np

from statdisc import _kernels, boundary_analysis, cli, disc, indices, quadric, rh_solver

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._undo = []

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, before=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            # a recursive call (canonical_json) stays inside its outer span
            if stack and spans[stack[-1]][NAME] == label:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx][ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[idx][END] = clock()

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, module, attr, name, before=None):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not (modname == "statdisc" or modname.startswith("statdisc.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, name, before=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, before))
        self._undo.append((cls, attr, original))

    def _patch_linalg(self, attr):
        """numpy.linalg calls made directly by the solver layer."""
        original = getattr(np.linalg, attr)
        inner = self.wrap(f"rh_solver.{attr}", original)
        spans, stack = self.spans, self.stack

        def routed(*args, **kwargs):
            if stack and spans[stack[-1]][NAME].startswith("rh_solver."):
                return inner(*args, **kwargs)
            return original(*args, **kwargs)

        np.linalg.__dict__[attr] = routed
        self._undo.append((np.linalg, attr, original))

    def install(self):
        def term_points(args, kwargs):
            self.counts["quadric.kernel.term_points"] += args[0].shape[0] * args[1].shape[0]

        def build_b_name(args, kwargs):
            source = kwargs.get("source", args[2] if len(args) > 2 else "closed_form")
            return "indices.build_B.gradient" if source in (
                "gradient", "G", "g_based", "G-based") else "indices.build_B.closed_form"

        fn = self._patch_function
        fn(_kernels, "poly_eval", "quadric.kernel", term_points)
        fn(_kernels, "poly_grad", "quadric.kernel", term_points)
        self._patch_method(quadric.PerturbedHypersurface, "eval_rho_many", "quadric.eval_rho_many")
        self._patch_method(quadric.PerturbedHypersurface, "grad_rho_many", "quadric.grad_rho_many")
        fn(boundary_analysis, "hilbert_transform", "boundary_analysis.hilbert_transform")
        fn(boundary_analysis, "winding_number", "boundary_analysis.winding_number")
        self._patch_method(rh_solver._DiscSystem, "residual", "rh_solver.residual")
        self._patch_method(rh_solver._DiscSystem, "jacobian", "rh_solver.jacobian")
        for attr in ("solve_glued_disc", "solve_with_homotopy", "family_dimension"):
            fn(rh_solver, attr, f"rh_solver.{attr}")
        self._patch_linalg("lstsq")
        self._patch_linalg("svd")
        fn(indices, "build_B", build_b_name)
        fn(indices, "partial_indices", "indices.partial_indices")
        fn(indices, "birkhoff_partial_indices", "indices.birkhoff")
        fn(indices, "_extract_det_roots", "indices.root_extraction")
        fn(indices, "maslov_index", "indices.maslov_index")
        fn(indices, "verify_reduction_chain", "indices.verify_reduction_chain")
        fn(disc, "projectivize_lift", "disc.projectivize_lift")
        self._patch_method(disc.Disc, "coefficients", "disc.coefficients")
        fn(disc, "make_disc", "disc.make_disc")
        fn(disc, "invert_disc", "disc.invert_disc")
        fn(disc, "verify_gluing", "disc.verify_gluing")
        fn(cli, "parse_config", "cli.parse")
        fn(cli, "_run", "cli.run")
        fn(cli, "canonical_json", "cli.emit")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                vars(owner)[attr] = original
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _self_seconds(spans):
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - c for sp, c in zip(spans, child)]


def self_times(spans, keep=None):
    """Per-name totals: self seconds, inclusive seconds, calls (of the
    spans whose index `keep` accepts, default all)."""
    agg = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (sp, own) in enumerate(zip(spans, _self_seconds(spans))):
        if keep is None or keep[i]:
            a = agg[sp[NAME]]
            a[0] += own
            a[1] += sp[END] - sp[START]
            a[2] += 1
    return agg


def solver_counts(spans):
    """Newton iterations, line-search trials and homotopy schedules."""
    out = Counter()
    name = [sp[NAME] for sp in spans]
    failed_stages = Counter()
    for sp in spans:
        parent = sp[PARENT]
        pname = name[parent] if parent >= 0 else None
        if pname == "rh_solver.solve_glued_disc":
            if sp[NAME] == "rh_solver.jacobian":
                out["newton_iterations"] += 1
            elif sp[NAME] == "rh_solver.residual":
                out["residual_in_solve"] += 1
        if sp[NAME] == "rh_solver.solve_glued_disc":
            out["solves"] += 1
            if pname == "rh_solver.solve_with_homotopy" and sp[ERROR]:
                failed_stages[parent] += 1
    for i, sp in enumerate(spans):
        if sp[NAME] == "rh_solver.solve_with_homotopy":
            ok = sp[ERROR] is None
            out["schedules_tried"] += failed_stages[i] + int(ok)
            out["homotopy_ok"] += int(ok)
    # each solve evaluates the start residual once; every other residual
    # call directly under the solve is a line-search trial
    out["line_search_trials"] = out["residual_in_solve"] - out["solves"]
    return out


def subtree_self_times(spans, root_name):
    """Self seconds per name of the spans at or below any `root_name` span."""
    inside = [False] * len(spans)
    for i, sp in enumerate(spans):  # parents precede their children
        inside[i] = sp[NAME] == root_name or (sp[PARENT] >= 0 and inside[sp[PARENT]])
    return {k: v[0] for k, v in sorted(self_times(spans, inside).items())}
