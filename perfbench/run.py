"""statdisc benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload continuation --seed 1 --seconds 20 --trace 0

Every operation is checked after the timed window.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it holds the details (environment, input
fingerprint, failure breakdown, tail percentile).  `--trace 1` prints
the per-layer metrics instead of the end-to-end ones.  `--compare
PARENT_DIR CHANGE_DIR` reads saved stdouts of runs (one file per run)
and prints medians, quartiles and ratios per workload and metric.

The workloads are closed loops with one caller in one process.  BLAS is
held to one thread: one caller gains little from more, and a single
thread keeps timings steadier on small shared machines.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("continuation", "symbols", "cli-startup")
HOLDOUT_SEED = 7919  # kept back: confirm a claimed gain on it after tuning
SETUP_PROBES = 5
REFERENCE_REPEATS = 3


class DeadlineExceeded(Exception):
    """An in-process operation ran past its workload's deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def make_workload(name):
    import workloads as wl

    return {
        "continuation": wl.Continuation,
        "symbols": wl.Symbols,
        "cli-startup": lambda: wl.CliStartup(ROOT, WORKDIR),
    }[name]()


def setup(name, seed):
    """Generate the seeded problem list and build its inputs."""
    import numpy as np

    wl = make_workload(name)
    tag = WORKLOADS.index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    problems = wl.generate(rng)
    blob = json.dumps(problems, sort_keys=True).encode()
    fingerprint = hashlib.sha256(blob).hexdigest()[:16]
    if name == "cli-startup":
        objs = [wl.build(p, i) for i, p in enumerate(problems)]
    else:
        objs = [wl.build(p) for p in problems]
    return wl, problems, objs, fingerprint


def time_setup_probes(name, seed):
    """Median time from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _out, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {err.decode()[-400:]}")
        times.append(t1 - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# the timed window
# ---------------------------------------------------------------------------


def run_window(wl, objs, seconds, tracer=None):
    """Closed loop over the problem list, in whole cycles, until at least
    `seconds` have passed (and starting nothing after three times that).

    Returns one record per attempted operation: (index, latency, value,
    status, kind) with status "ok" (checked later), "refused" or "crashed".
    """
    from statdisc.errors import StatdiscError
    from workloads import Refused

    in_process = wl.name != "cli-startup"
    records = []
    t_start = time.perf_counter()
    end = t_start + seconds
    i = 0
    # whole cycles, so every run covers the same mix of slots; on a slow
    # machine the cycle in progress is cut at three times the window
    cap = t_start + 3 * seconds
    while time.perf_counter() < end or (i % wl.cycle and time.perf_counter() < cap):
        idx = i % len(objs)
        if tracer is not None:
            tracer.op = i
        status, kind, value = "ok", None, None
        t0 = time.perf_counter()
        try:
            try:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
                value = wl.run(objs[idx])
            finally:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (StatdiscError, Refused, DeadlineExceeded) as exc:
            status, kind = "refused", getattr(exc, "kind", type(exc).__name__)
        except Exception as exc:  # reported separately from library errors
            status, kind = "crashed", type(exc).__name__
        t1 = time.perf_counter()
        records.append([idx, t1 - t0, value, status, kind])
        i += 1
    return records, time.perf_counter() - t_start


def check_records(wl, objs, records):
    """Run each workload's correctness checks on the returned answers."""
    from workloads import CheckFailed

    references = {}
    for rec in records:
        idx, _lat, value, status, _kind = rec
        if status != "ok":
            continue
        try:
            if wl.name == "cli-startup":
                refused = wl.classify(value)
                if refused is not None:
                    rec[3], rec[4] = "refused", refused
                    continue
                if idx not in references:
                    references[idx] = wl.reference(objs[idx])
                wl.check(objs[idx], value, references[idx])
            else:
                wl.check(objs[idx], value)
        except CheckFailed as exc:
            rec[3], rec[4] = "wrong", exc.kind
        except Exception as exc:  # a crash inside a check counts as wrong
            rec[3], rec[4] = "wrong", f"check_crashed:{type(exc).__name__}"
    return references


def run_oracle(wl, objs):
    """Toeplitz-oracle agreement on the fixed subset (symbols only)."""
    if wl.name != "symbols":
        return None
    from statdisc.errors import StatdiscError

    out = {"checked": 0, "disagree": 0, "refused": 0, "seconds": []}
    for obj in wl.oracle_objects(objs):
        try:
            value = wl.run(obj)
        except StatdiscError:
            continue  # the factorization's refusal is counted in the window
        t0 = time.perf_counter()
        try:
            oracle = wl.oracle(obj)
        except StatdiscError:
            out["refused"] += 1
            continue
        finally:
            out["seconds"].append(time.perf_counter() - t0)
        out["checked"] += 1
        out["disagree"] += int(oracle != value[0])
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """Highest percentile with at least ten samples beyond it; with ten
    samples or fewer, the minimum, which has the most beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[0], 0.0
    return s[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(wl):
    """Peak resident memory of the process that does the work: this one,
    or for cli-startup the largest CLI child (the only children reaped
    before this is read)."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-startup" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def slot_table(wl, records):
    """Per slot of the cycle: attempts, successes, median latency, failures."""
    slots = {}
    for r in records:
        s = slots.setdefault(r[0] % wl.cycle, [0, 0, [], []])
        s[0] += 1
        s[1] += r[3] == "ok"
        s[2].append(r[1])
        if r[3] != "ok":
            s[3].append(r[4])
    return {k: [a, ok, statistics.median(lat), sorted(set(kinds))]
            for k, (a, ok, lat, kinds) in sorted(slots.items())}


def summarize(records, wall):
    ok = [r[1] for r in records if r[3] == "ok"]
    by_type = {}
    for r in records:
        if r[3] != "ok":
            key = f"{r[3]}:{r[4]}"
            by_type[key] = by_type.get(key, 0) + 1
    attempted = len(records)
    summary = {
        "attempted": attempted,
        "ok": len(ok),
        "refused": sum(1 for r in records if r[3] == "refused"),
        "wrong": sum(1 for r in records if r[3] == "wrong"),
        "crashed": sum(1 for r in records if r[3] == "crashed"),
        "fail_ratio": (attempted - len(ok)) / attempted,
        "failures_by_type": dict(sorted(by_type.items())),
        "wall_s": wall,
    }
    return summary, ok


def environment():
    import numpy as np

    import statdisc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "kernel_backend": statdisc.kernel_backend(),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def _wall(cmd, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times(repeats=3):
    """Cumulative import seconds of statdisc and of numpy (-X importtime)."""
    pkg, npy = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import statdisc"],
                              cwd=ROOT, env=_child_env(), check=True, capture_output=True)
        found = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("statdisc", "numpy"):
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        pkg.append(found["statdisc"])
        npy.append(found["numpy"])
    return statistics.median(pkg), statistics.median(npy)


def write_spans(tracer, name, seed):
    """One JSON array per span: name, start, end, parent, operation, error."""
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp) + "\n")
    return os.path.relpath(path, ROOT)


def layer_metrics(tracer, traced_ops, window_op_s, oracle):
    from tracing import self_times, solver_counts

    agg = self_times(tracer.spans)
    sc = solver_counts(tracer.spans)
    per = 1.0 / max(traced_ops, 1)

    def self_s(name):
        return agg[name][0] * per if name in agg else 0.0

    def incl_s(name):
        return agg[name][1] * per if name in agg else 0.0

    def calls(name):
        return agg[name][2] * per if name in agg else 0.0

    m = {}
    m["quadric.kernel.s"] = self_s("quadric.kernel")
    m["quadric.kernel.calls"] = calls("quadric.kernel")
    m["quadric.kernel.term_points"] = tracer.counts["quadric.kernel.term_points"] * per
    m["quadric.grad_rho_many.s"] = self_s("quadric.grad_rho_many")
    m["quadric.eval_rho_many.s"] = self_s("quadric.eval_rho_many")
    m["boundary_analysis.hilbert_transform.s"] = self_s("boundary_analysis.hilbert_transform")
    m["boundary_analysis.hilbert_transform.calls"] = calls("boundary_analysis.hilbert_transform")
    m["boundary_analysis.winding_number.s"] = self_s("boundary_analysis.winding_number")
    m["rh_solver.residual.calls"] = calls("rh_solver.residual")
    m["rh_solver.residual.s"] = self_s("rh_solver.residual")
    m["rh_solver.jacobian.s"] = self_s("rh_solver.jacobian")
    m["rh_solver.jacobian.calls"] = calls("rh_solver.jacobian")
    jac_incl = agg["rh_solver.jacobian"][1] if "rh_solver.jacobian" in agg else 0.0
    m["rh_solver.jacobian.share"] = jac_incl / window_op_s if window_op_s else 0.0
    m["rh_solver.newton_iterations"] = sc["newton_iterations"] * per
    m["rh_solver.line_search.trials"] = sc["line_search_trials"] * per
    m["rh_solver.line_search.accept_ratio"] = (
        sc["newton_iterations"] / sc["line_search_trials"] if sc["line_search_trials"] else 0.0)
    m["rh_solver.homotopy.schedules_tried"] = sc["schedules_tried"] * per
    m["rh_solver.homotopy.success_ratio"] = (
        sc["homotopy_ok"] / sc["schedules_tried"] if sc["schedules_tried"] else 0.0)
    m["rh_solver.lstsq.s"] = self_s("rh_solver.lstsq")
    m["rh_solver.svd.s"] = self_s("rh_solver.svd")
    # inclusive: the step is one Jacobian and one SVD
    m["rh_solver.family_dimension.s"] = incl_s("rh_solver.family_dimension")
    m["indices.build_B.closed_form.s"] = self_s("indices.build_B.closed_form")
    m["indices.build_B.gradient.s"] = self_s("indices.build_B.gradient")
    m["indices.partial_indices.s"] = self_s("indices.partial_indices")
    m["indices.birkhoff.s"] = self_s("indices.birkhoff")
    m["indices.root_extraction.s"] = self_s("indices.root_extraction")
    m["indices.maslov_index.s"] = self_s("indices.maslov_index")
    m["indices.verify_reduction_chain.s"] = self_s("indices.verify_reduction_chain")
    m["indices.toeplitz_oracle.s"] = (
        statistics.median(oracle["seconds"]) if oracle and oracle["seconds"] else 0.0)
    m["disc.projectivize_lift.s"] = self_s("disc.projectivize_lift")
    m["disc.coefficients.s"] = self_s("disc.coefficients")
    m["disc.make_disc.s"] = self_s("disc.make_disc")
    m["disc.invert_disc.s"] = self_s("disc.invert_disc")
    m["disc.verify_gluing.s"] = self_s("disc.verify_gluing")
    m["cli.parse.s"] = self_s("cli.parse")
    m["cli.run.s"] = self_s("cli.run")
    m["cli.emit.s"] = self_s("cli.emit")
    return m, agg


FAILURE_METRICS = {
    "rh_solver": ("NoConvergenceError", "LiftConstructionError", "DimensionAmbiguousError",
                  "DeadlineExceeded"),
    "indices": ("FactorizationError", "ApproximationError", "ReductionMismatchError",
                "NormalizationError"),
}


def failure_metrics(wl, records, traced_ops):
    """Refusals per error type, under the layer the workload drives."""
    layer = {"continuation": "rh_solver", "symbols": "indices"}.get(wl.name)
    out = {}
    for lay, kinds in FAILURE_METRICS.items():
        for k in kinds:
            out[f"{lay}.failures.{k}"] = 0.0
        out[f"{lay}.failures.other"] = 0.0
    if layer is None:
        return out
    for r in records:
        if r[3] == "refused":
            key = f"{layer}.failures.{r[4]}"
            if key not in out:
                key = f"{layer}.failures.other"
            out[key] += 1.0 / max(traced_ops, 1)
    return out


def tracing_overhead(wl, objs, references, min_seconds=1.0, pairs=3):
    """Replay the first operations untraced and traced, alternating, and
    compare the medians.  The replay holds as many operations as take
    `min_seconds` untraced."""
    from tracing import Tracer

    if wl.name == "cli-startup":
        pool = list(references)

        def one(idx):
            wl.reference(objs[idx])
    else:
        pool = list(range(len(objs)))

        def one(idx):
            try:
                wl.run(objs[idx])
            except Exception:  # the outcome was recorded in the window
                pass

    items = []
    t0 = time.perf_counter()
    for idx in pool:
        one(idx)
        items.append(idx)
        if time.perf_counter() - t0 >= min_seconds:
            break

    def replay(traced):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for idx in items:
                one(idx)
            return time.perf_counter() - t0
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for _ in range(pairs):
        plain.append(replay(False))
        traced.append(replay(True))
    p, t = statistics.median(plain), statistics.median(traced)
    return {"replayed_ops": len(items), "pairs": pairs, "untraced_s": p, "traced_s": t,
            "overhead_ratio": t / p - 1.0}


def reference_cases():
    """ROADMAP baseline cases: median, min and max of a few repeats."""
    import numpy as np

    from statdisc import (DiscParams, Hyperquadric, PerturbedHypersurface, SolveConfig,
                          build_B, center_map_jacobians, family_dimension, partial_indices,
                          solve_with_homotopy, toeplitz_kernel_indices, verify_reduction_chain)

    q = Hyperquadric(n=2, A=np.diag([1.0, 1.5]))
    p = DiscParams(y0=0.0, v=np.zeros(2), w=np.array([1.0, 0.3 - 0.1j]), a=0.2)
    m = PerturbedHypersurface(base=q, epsilon=1e-3, terms={(0, 0, 4, 0, 0, 0): 1.0})
    cfg = SolveConfig(N=256, M=32)
    sphere = PerturbedHypersurface(base=Hyperquadric(n=1, A=np.array([[1.0]])),
                                   epsilon=1e-3, terms={(0, 0, 4, 0): 1.0})
    B = build_B(q, p, source="closed_form")
    sol = solve_with_homotopy(m, p, cfg)
    cases = {
        "solve n=2 N=256 M=32 eps=1e-3": lambda: solve_with_homotopy(m, p, cfg),
        "family_dimension (same case)": lambda: family_dimension(m, sol, cfg),
        "center_map_jacobians pinned, sphere quartic eps=1e-3, N=256 M=32":
            lambda: center_map_jacobians(sphere, 1.0, cfg),
        "partial_indices n=2 closed form": lambda: partial_indices(B),
        "toeplitz_kernel_indices order 64": lambda: toeplitz_kernel_indices(B, order=64),
        "verify_reduction_chain n=2": lambda: verify_reduction_chain(q, p),
    }
    out = {}
    for name, fn in cases.items():
        times = []
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = {"median_s": statistics.median(times), "min_s": min(times),
                     "max_s": max(times), "repeats": REFERENCE_REPEATS}
    imp, _npy = import_times()
    out["import statdisc (-X importtime)"] = {"median_s": imp, "repeats": 3}
    return out


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def load_runs(directory):
    runs = {}
    for fname in sorted(os.listdir(directory)):
        path = os.path.join(directory, fname)
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if len(lines) < 2:
            continue
        try:
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            continue
        key = (details["workload"], details["trace"])
        runs.setdefault(key, []).append(result["metrics"])
    return runs


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units(trace):
    """Metric names and units, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def load_bounds():
    """end_to_end bounds and directions from BENCHMARK.json, if present."""
    try:
        spec = load_spec()
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec.get("end_to_end", [])}


def verdict(name, a, b, bounds):
    """regressed / ok / unresolved against the metric's bound, if it has one."""
    if name not in bounds or not a or not b:
        return ""
    bound, better = bounds[name]
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if worse > bound:
        return "regressed"
    if (q[2] - q[0]) / ma > bound:
        return "unresolved"
    return "ok"


def compare(parent_dir, change_dir):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    bounds = load_bounds()
    rows = []
    for key in sorted(set(parent) & set(change)):
        names = sorted(set(parent[key][0]) & set(change[key][0]))
        for name in names:
            a = [r[name]["value"] for r in parent[key]]
            b = [r[name]["value"] for r in change[key]]
            qa = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
            qb = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
            ma, mb = statistics.median(a), statistics.median(b)
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": parent[key][0][name]["unit"], "runs": [len(a), len(b)],
                "parent_median": ma, "parent_q1_q3": [qa[0], qa[2]],
                "change_median": mb, "change_q1_q3": [qb[0], qb[2]],
                "ratio_change_over_parent": mb / ma if ma else None,
                "verdict": verdict(name, a, b, bounds) if key[1] == 0 else "",
            })
    print(f"{'workload':<14}{'metric':<42}{'parent med [q1,q3]':>34}"
          f"{'change med [q1,q3]':>34}{'change/parent':>15}  verdict")
    for r in rows:
        pa = f"{r['parent_median']:.4g} [{r['parent_q1_q3'][0]:.4g},{r['parent_q1_q3'][1]:.4g}]"
        ch = f"{r['change_median']:.4g} [{r['change_q1_q3'][0]:.4g},{r['change_q1_q3'][1]:.4g}]"
        ratio = "n/a" if r["ratio_change_over_parent"] is None else \
            f"{r['ratio_change_over_parent']:.4f}"
        print(f"{r['workload']:<14}{r['metric']:<42}{pa:>34}{ch:>34}{ratio:>15}  {r['verdict']}")
    print(json.dumps({"comparison": rows}))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(SRC, "statdisc", "__init__.py")):
        sys.stderr.write(f"statdisc sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    wl, problems, objs, fingerprint = setup(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - PROCESS_START
    env = environment()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        if wl.name != "cli-startup":
            tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        records, wall = run_window(wl, objs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = peak_rss_mb(wl)

    if tracer is not None and wl.name == "cli-startup":
        tracer.install()  # the in-process reference calls are what it traces
    try:
        references = check_records(wl, objs, records)
    finally:
        if tracer is not None:
            tracer.uninstall()
    oracle = run_oracle(wl, objs)
    summary, ok = summarize(records, wall)
    failed = summary["wrong"] + summary["crashed"] + (oracle or {}).get("disagree", 0)
    if not ok:
        sys.stderr.write(f"no operation succeeded: {summary['failures_by_type']}\n")
        return 1

    details = {
        "workload": wl.name,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint,
        "problems": len(problems),
        "environment": env,
        "own_setup_s": own_setup_s,
        **summary,
    }
    if oracle is not None:
        details["toeplitz_oracle"] = oracle
    details["slots"] = slot_table(wl, records)

    if not args.trace:
        setup_s, probes = time_setup_probes(args.workload, args.seed)
        value, pct = tail(ok)
        details["setup_probes_s"] = probes
        details["latency_tail"] = {"percentile": pct, "samples": len(ok)}
        metrics = {
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(ok),
            "latency_tail_s": value,
            "goodput_ops_s": len(ok) / wall,
            "success_ratio": len(ok) / len(records),
            "peak_rss_mb": rss_mb,
        }
    else:
        traced_ops = len(references) if wl.name == "cli-startup" else len(records)
        window_op_s = sum(r[1] for r in records)
        from tracing import subtree_self_times

        layer, agg = layer_metrics(tracer, traced_ops, window_op_s, oracle)
        layer.update(failure_metrics(wl, records, traced_ops))
        interp = _wall([sys.executable, "-c", "pass"])
        imp, imp_np = import_times()
        layer["cli.interpreter.s"] = interp
        layer["cli.import.s"] = imp
        layer["cli.import_numpy.s"] = imp_np
        details["traced_ops"] = traced_ops
        details["spans"] = len(tracer.spans)
        details["spans_file"] = write_spans(tracer, wl.name, args.seed)
        details["self_time_s"] = {k: v[0] for k, v in sorted(agg.items())}
        details["traced_latency_p50_s"] = statistics.median(ok)
        details["op_time_s"] = window_op_s
        details["span_root_time_s"] = sum(
            sp[2] - sp[1] for sp in tracer.spans if sp[3] == -1)
        details["jacobian_path_self_s"] = subtree_self_times(tracer.spans, "rh_solver.jacobian")
        details["tracing_overhead"] = tracing_overhead(wl, objs, references)
        layer["trace.overhead_ratio"] = details["tracing_overhead"]["overhead_ratio"]
        details["reference_cases"] = reference_cases()
        metrics = layer
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
