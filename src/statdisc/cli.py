"""Command-line front end.

Subcommands map one-to-one onto the library operations; every numeric
output goes through a canonical JSON or CSV emitter (floats at 17
significant digits, complex numbers as [re, im] pairs) so identical
configurations produce byte-identical output.  Exit codes: 0 success,
1 domain error (details as JSON on stderr), 2 usage error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import boundary_analysis
from .boundary_analysis import GRID_DEFAULT, circle_nodes, holomorphic_defect
from .disc import (
    ClosedFormLift,
    DiscParams,
    LiftParams,
    disc_through,
    invert_disc,
    make_disc,
    projectivize_lift,
    verify_gluing,
)
from .errors import InvalidInputError, StatdiscError, UsageError
from .quadric import Hyperquadric, PerturbedHypersurface

# Module level holds only what every subcommand runs.  A handler that
# needs `indices` or `rh_solver` imports it in its own body, so a process
# compiles and loads only the modules of the subcommand it runs.

# ---------------------------------------------------------------------------
# canonical output
# ---------------------------------------------------------------------------


def _fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise StatdiscError("non-finite value in output")
    return format(x, ".17g")


def canonical_json(obj):
    """Deterministic JSON with fixed float formatting and sorted keys;
    numpy arrays go by their nested lists, complex numbers as [re, im]."""
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)},{_fmt_float(obj.imag)}]"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def samples_csv(header_fields, rows, schema):
    lines = [f"# schema={schema}", ",".join(header_fields)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt_float(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def boundary_csv(samples):
    """CSV for (n+1, N) boundary samples: k, theta, per-component re/im."""
    ncomp, N = samples.shape
    theta = 2.0 * np.pi * np.arange(N) / N
    fields = ["k", "theta"]
    for j in range(ncomp):
        fields += [f"component_{j}_re", f"component_{j}_im"]
    rows = []
    for k in range(N):
        row = [k, theta[k]]
        for j in range(ncomp):
            row += [samples[j, k].real, samples[j, k].imag]
        rows.append(row)
    return samples_csv(fields, rows, "boundary-samples/1")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    subcommand: str
    options: dict = field(default_factory=dict)


def _parse_complex(text):
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}")


def _parse_point(text):
    return np.array([_parse_complex(t) for t in text.split(",")], dtype=complex)


def _build_parser():
    """The parser, and dest -> argparse action of each option; every
    subcommand takes the same options."""
    ap = argparse.ArgumentParser(
        prog="statdisc",
        description="Stationary discs on hyperquadrics: construction, lifts, "
        "boundary-symbol indices, and Newton continuation.",
    )
    ap.add_argument("subcommand", choices=tuple(HANDLERS))
    actions = {}

    def opt(*flags, **kw):
        action = ap.add_argument(*flags, **kw)
        actions[action.dest] = action

    opt("--config", help="JSON file with option defaults")
    opt("--seed", type=int, default=0, help="seed for randomized suites")
    opt("--grid", type=int, help="circle grid size override")
    opt("--modes", type=int, help="Fourier truncation for solves")
    opt("--format", choices=("json", "csv"), default="json")
    opt("--output", help="write the artifact to a path instead of stdout")
    opt("--n", type=int, default=1)
    opt("--A", help="JSON file with the model {n, A} (or full input)")
    opt("--a", default="0", help="pole parameter, complex literal")
    opt("--w", default="1", help="comma-separated complex vector")
    opt("--v", help="comma-separated complex vector (default 0)")
    opt("--y0", type=float, default=0.0)
    opt("--b", type=float, default=1.0)
    opt("--p0", default="1", help="center first coordinate")
    opt("--z", help="comma-separated target point")
    opt("--epsilon", type=float, default=0.0)
    opt("--term", action="append", default=[],
        help="perturbation monomial as 'i0,i1,...:coeff'")
    opt("--input", help="input file (JSON or CSV, per subcommand)")
    opt("--count", type=int, default=16)
    opt("--pin-center", action="store_true")
    opt("--source", default="closed_form", choices=("closed_form", "gradient"))
    opt("--theta", type=float, default=0.0,
        help="rotation angle for the transport differential")
    return ap, actions


def _config_value(action, key, value):
    """A config-file value, converted as its flag's command-line text would be."""
    if action.nargs == 0:  # --pin-center
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(action.default, list):  # --term, one string per flag
        if not (isinstance(value, list) and all(isinstance(t, str) for t in value)):
            raise UsageError(f"config key {key!r} must be a list of strings, got {value!r}")
        return value
    if action.type is not None:
        try:
            return action.type(str(value))
        except ValueError as exc:
            raise UsageError(f"bad numeric option: {exc}")
    if not isinstance(value, str):
        raise UsageError(f"config key {key!r} must be a string, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def parse_config(argv):
    """argv -> RunConfig; flags override config-file values."""
    ap, actions = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        raise UsageError(f"bad command line (argparse exit {exc.code})")
    options = vars(ns).copy()
    cfg_path = options.pop("config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(defaults, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(defaults) - (set(actions) - {"config"})
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for k, v in defaults.items():
            v = _config_value(actions[k], k, v)
            # command line wins: only fill values the user left at defaults
            if options[k] == actions[k].default:
                options[k] = v
    sub = options.pop("subcommand")
    return RunConfig(subcommand=sub, options=options)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def _load_model(opt):
    if opt.get("A"):
        if opt.get("epsilon") or opt.get("term"):
            raise UsageError(
                "--A reads the whole model from its file: put 'epsilon' and 'terms' in the "
                "model file, not --epsilon or --term"
            )
        path = opt["A"]
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read model file: {exc}")
        return PerturbedHypersurface.from_json(obj)
    n = int(opt["n"])
    terms = {}
    for spec in opt.get("term", []):
        try:
            mi, coeff = spec.split(":")
            key = tuple(int(s) for s in mi.split(","))
            terms[key] = float(coeff)
        except ValueError:
            raise UsageError(f"bad --term {spec!r}")
    return PerturbedHypersurface(
        base=Hyperquadric(n=n, A=np.eye(n, dtype=complex)),
        epsilon=float(opt.get("epsilon") or 0.0),
        terms=terms,
    )


def _disc_params(opt, n):
    w = _parse_point(opt["w"])
    if w.size != n:
        raise UsageError(f"--w must have {n} components")
    v = _parse_point(opt["v"]) if opt.get("v") else np.zeros(n, dtype=complex)
    return DiscParams(y0=float(opt["y0"]), v=v, w=w, a=_parse_complex(opt["a"]))


def _check_options(opt):
    """Usage errors for out-of-range numeric flags, before any array is built."""
    counts = {k: opt[k] for k in ("n", "modes", "count") if opt.get(k) is not None}
    if opt.get("A"):
        counts.pop("n", None)
    for key, value in counts.items():
        if value < 1:
            raise UsageError(f"--{key} must be at least 1, got {value}")
    if opt["seed"] < 0:
        raise UsageError(f"--seed must be at least 0, got {opt['seed']}")
    if not np.isfinite(opt["theta"]):
        raise UsageError(f"--theta must be finite, got {opt['theta']}")


def _grid(opt):
    if opt.get("grid") is None:
        return GRID_DEFAULT
    try:
        return boundary_analysis.validate_grid(opt["grid"])
    except InvalidInputError as exc:
        raise UsageError(f"--grid {opt['grid']}: {exc}")


def _solve_config(opt, N):
    """Solver settings on the grid N that _grid validated; --modes, given or
    the default, must be below N/2."""
    from .rh_solver import SolveConfig

    given = opt.get("modes") is not None
    M = int(opt["modes"]) if given else SolveConfig.M
    if M >= N // 2:
        default = "" if given else " (the default)"
        raise UsageError(f"--modes {M}{default} must be below --grid/2 = {N // 2}")
    return SolveConfig(N=N, M=M)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _required(opt, key, sub):
    """The value of an option that subcommand `sub` cannot run without."""
    if not opt.get(key):
        what = "--input CSV of boundary samples" if key == "input" else f"--{key}"
        raise UsageError(f"{sub} needs {what}")
    return opt[key]


def _homotopy_solve(opt, m, N):
    """Newton continuation from the closed-form disc; --pin-center fixes (p0, 0, ...)."""
    from .rh_solver import _center_pin, solve_with_homotopy

    params, scfg = _disc_params(opt, m.n), _solve_config(opt, N)
    pin = _center_pin(m.n, _parse_complex(opt["p0"])) if opt.get("pin_center") else None
    return solve_with_homotopy(m, params, scfg, pin_center=pin), scfg


def _params_json(p):
    return {"y0": p.y0, "v": p.v, "w": p.w, "a": p.a}


def _disc_make(opt, m, N):
    params = _disc_params(opt, m.n)
    d = make_disc(m.base, params)
    h = d.boundary(N)
    if opt["format"] == "csv":
        return boundary_csv(h)
    return {
        "params": _params_json(params),
        "center": d.center(),
        "endpoint": d.at(np.array(1.0 + 0.0j)),
        "velocity": d.velocity(),
        # the gluing residual alone: verify's lift divides by a normalizing
        # component that a valid closed-form disc can have at 0
        "max_residual": float(np.abs(m.eval_rho_many(h.T)).max()),
    }


def _disc_invert(opt, m, N):
    samples = _read_boundary_csv(_required(opt, "input", "disc-invert"), m.n + 1)
    return {"params": _params_json(invert_disc(m.base, samples))}


def _disc_through(opt, m, N):
    z = _parse_point(_required(opt, "z", "disc-through"))
    params = disc_through(m.base, _parse_complex(opt["p0"]), z)
    d = make_disc(m.base, params)
    return {
        "a": params.a,
        "w": params.w,
        "y0": params.y0,
        "endpoint": d.at(np.array(1.0 + 0.0j)),
    }


def _lift(opt, m, N):
    q = m.base
    lp = LiftParams(disc=_disc_params(opt, q.n), b=float(opt["b"]))
    lift = ClosedFormLift(q, lp)
    if opt["format"] == "csv":
        return boundary_csv(lift.boundary(N))
    proj = projectivize_lift(q, lp, N=N)
    hs = circle_nodes(N)[None, :] * lift.boundary(N)
    return {
        "b": float(opt["b"]),
        "lift_defect": float(np.max(holomorphic_defect(hs))),
        "c_at_1": float(lift.c_factor(np.array(1.0 + 0.0j)).real),
        "projectivized_components": 2 * q.n + 1,
        "permutation": list(proj.permutation) if proj.permutation else None,
    }


def _verify(opt, m, N):
    samples = _read_boundary_csv(_required(opt, "input", "verify"), m.n + 1)
    rep = verify_gluing(m, samples)
    return {"max_residual": rep.max_residual, "lift_defect": rep.lift_defect}


def _indices_maslov(opt, m, N):
    from .indices import build_B, maslov_index

    B = build_B(m.base, _disc_params(opt, m.n), source=opt["source"], N=N)
    return {"kappa_total": maslov_index(B), "n": m.n, "expected": 2 * m.n + 2}


def _indices_partial(opt, m, N):
    from .indices import build_B, partial_indices

    B = build_B(m.base, _disc_params(opt, m.n), source=opt["source"], N=N)
    pi = partial_indices(B)  # its sum is certified against the det winding
    return {"kappa": pi.kappa, "total": pi.total, "det_winding": pi.total}


def _indices_replay(opt, m, N):
    from .indices import verify_reduction_chain

    rep = verify_reduction_chain(m.base, _disc_params(opt, m.n), N=N)
    return {
        "kappa": rep.kappa_closed.kappa,
        "total": rep.kappa_closed.total,
        "det_winding": rep.det_winding,
        "steps": rep.steps,
    }


def _solve(opt, m, N):
    sol = _homotopy_solve(opt, m, N)[0]
    frame = sol.frame  # the closed-form start always has one
    return {
        "coefficients": sol.h_coeffs,
        "frame": {
            "a": frame.a,
            "c2": frame.phi.c2,
            "L": frame.phi.L,
            "t": frame.phi.t,
            "coefficients": sol.coeffs,
        },
        "residual_sup": sol.residual_sup,
        "lift_defects": sol.lift_defects,
        "iterations": sol.iterations,
        "linearizations": sol.linearizations,
    }


def _family_dim(opt, m, N):
    from .rh_solver import family_dimension

    sol, scfg = _homotopy_solve(opt, m, N)
    fd = family_dimension(m, sol, scfg)
    return {
        "dim": fd["dim"],
        "pinned": bool(opt.get("pin_center")),
        "gap": list(fd["gap"]),
    }


def _jacobians(opt, m, N):
    from .rh_solver import center_map_jacobians

    cm = center_map_jacobians(m, _parse_complex(opt["p0"]), _solve_config(opt, N))
    return {
        "endpoint_invertible": cm.endpoint_invertible,
        "velocity_injective": cm.velocity_injective,
        "sv_endpoint_min": float(cm.sv_endpoint[-1]),
        "sv_velocity_min": float(cm.sv_velocity[-1]),
    }


def _indicatrix(opt, m, N):
    from .rh_solver import indicatrix_sample

    scfg = _solve_config(opt, N)
    pts = indicatrix_sample(
        m, _parse_complex(opt["p0"]), int(opt["count"]), scfg, seed=int(opt["seed"])
    )
    nn = m.n
    fields = ["index", "ok", "y0", "a_re", "a_im"]
    for j in range(nn):
        fields += [f"w{j}_re", f"w{j}_im"]
    for j in range(nn + 1):
        fields += [f"velocity{j}_re", f"velocity{j}_im"]
    fields.append("residual")
    rows = []
    for i, pt in enumerate(pts):
        ok = int(pt.velocity is not None)
        par = pt.params
        row = [i, ok]
        row += [par.y0, par.a.real, par.a.imag] if par else [0.0, 0.0, 0.0]
        for j in range(nn):
            row += [par.w[j].real, par.w[j].imag] if par else [0.0, 0.0]
        for j in range(nn + 1):
            row += [pt.velocity[j].real, pt.velocity[j].imag] if ok else [0.0, 0.0]
        row.append(0.0 if not np.isfinite(pt.residual) else pt.residual)
        rows.append(row)
    return samples_csv(fields, rows, "indicatrix-cloud/1")


def _transport(opt, m, N):
    from .rh_solver import transport_jet

    z = _parse_point(_required(opt, "z", "transport"))
    scfg = _solve_config(opt, N)
    th = float(opt["theta"])
    dF = np.eye(m.n + 1, dtype=complex)
    dF[1:, 1:] *= np.exp(1j * th)
    out = transport_jet(m, m, _parse_complex(opt["p0"]), dF, z, cfg=scfg)
    return {"image": out, "theta": th}


# subcommand -> handler(options, model, grid size) returning the artifact: a
# JSON object, or CSV text; the order is the order of the command-line help
HANDLERS = {
    "disc-make": _disc_make,
    "disc-invert": _disc_invert,
    "disc-through": _disc_through,
    "lift": _lift,
    "verify": _verify,
    "indices-maslov": _indices_maslov,
    "indices-partial": _indices_partial,
    "indices-replay": _indices_replay,
    "solve": _solve,
    "family-dim": _family_dim,
    "jacobians": _jacobians,
    "indicatrix": _indicatrix,
    "transport": _transport,
}


def _run(cfg):
    opt = cfg.options
    _check_options(opt)
    m, N = _load_model(opt), _grid(opt)
    if cfg.subcommand not in HANDLERS:
        raise UsageError(f"unknown subcommand {cfg.subcommand!r}")
    out = HANDLERS[cfg.subcommand](opt, m, N)
    return out if isinstance(out, str) else canonical_json(out) + "\n"


def _read_boundary_csv(path, ncomp):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read samples: {exc}")
    if lines and lines[0].startswith(("{", "[")):  # disc-make's default artifact, say
        raise UsageError("expected a boundary CSV (--format csv), got JSON")
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]  # after the header
    if not body:
        raise UsageError("boundary CSV has no samples")
    try:
        arr = np.array([[float(c) for c in row] for row in body])
    except ValueError:
        raise UsageError("malformed boundary CSV")
    if arr.shape[1] != 2 + 2 * ncomp:
        raise UsageError(f"expected {2 + 2 * ncomp} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise UsageError("boundary CSV has a non-finite value")
    samples = np.empty((ncomp, arr.shape[0]), dtype=complex)
    for j in range(ncomp):
        samples[j] = arr[:, 2 + 2 * j] + 1j * arr[:, 3 + 2 * j]
    return samples


def execute(cfg):
    """Run a parsed configuration; returns the process exit code."""
    try:
        artifact = _run(cfg)
    except UsageError as exc:
        sys.stderr.write(canonical_json({"error": "usage", "detail": str(exc)}) + "\n")
        return 2
    except StatdiscError as exc:
        report = {"error": type(exc).__name__, "detail": str(exc)}
        # diagnostics the exception carries; non-finite entries become null
        for key in ("residual_history", "singular_values"):
            if getattr(exc, key, None) is not None:
                report[key] = [float(v) if np.isfinite(v) else None for v in getattr(exc, key)]
        sys.stderr.write(canonical_json(report) + "\n")
        return 1
    out_path = cfg.options.get("output")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        sys.stderr.write(canonical_json({"error": "usage", "detail": str(exc)}) + "\n")
        return 2
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
