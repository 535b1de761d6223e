"""Seeded inputs, operations and correctness checks of the workloads.

A workload generates its problem list once from the seed, as plain
numbers; `build` turns each problem into library objects before the
timed window, so the library receives only the generated inputs.  During
the window the runner calls `run` on the problems in list order and keeps
whatever it returns; `check` inspects each result afterwards, outside the
window, and raises `CheckFailed` when the answer is wrong.

Problems follow a fixed cyclic design: the slot of a problem in its cycle
fixes the properties that set its cost and its outcome (dimension, grid
size, pinning, number of perturbation terms, band of |a|), and the seed
draws everything else within those cells.  Every run therefore sees the
same mix in the same order, which keeps run-to-run spread small while
the seed still changes every input.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from statdisc import cli, disc, indices, quadric, rh_solver

SIZES = ((128, 24), (256, 32), (256, 48))
# converging solves from a closed-form start take 2-4 Newton steps; the
# cap keeps the truncation-floor failures from running 30 steps per stage
MAX_ITER = 6
A_MAX_SYMBOL = 0.9  # reaches ROADMAP item 4b's factorization pocket


class CheckFailed(Exception):
    """The library returned an answer that fails a correctness check."""

    def __init__(self, kind, detail=""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


class Refused(Exception):
    """An operation ended without an answer but without a library error
    either (a CLI process past its deadline)."""

    def __init__(self, kind, detail=""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


# ---------------------------------------------------------------------------
# random draws, all as plain numbers
# ---------------------------------------------------------------------------


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in np.ravel(np.asarray(v, dtype=complex))]


def _unpair(p):
    return np.array([complex(re, im) for re, im in p], dtype=complex)


def draw_hermitian(rng, n):
    """Non-degenerate Hermitian form, eigenvalues +-[0.5, 2], random signature."""
    ev = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(H)
    A = Q @ np.diag(ev) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


def draw_w(rng, A, sign=None):
    """Direction of norm 0.5-1 whose Hermitian form stays away from 0 (and
    has the given sign), so the disc's center stays off the quadric."""
    n = A.shape[0]
    while True:
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w *= rng.uniform(0.5, 1.0) / np.linalg.norm(w)
        form = np.real(w.conj() @ A @ w)
        if abs(form) >= 0.25 * np.linalg.norm(w) ** 2 and (sign is None or form * sign > 0):
            return w


def orient(A, sign):
    """A, or -A when A is definite of the sign opposite to `sign`."""
    ev = np.linalg.eigvalsh(A)
    return -A if (ev * sign < 0).all() else A


def slot_sign(k):
    """Sign of Re of the disc's center for slot k; both occur equally.

    The polynomial kernels raise float coordinates to integer powers, and
    negative bases cost several times more than positive ones, so this
    sign sets much of an operation's cost.  Fixing it per slot, and
    keeping Im of the center at 0 so that its coordinate is negative on
    half the circle, keeps that cost the same from seed to seed.
    """
    return 1.0 if (k // 2) % 2 == 0 else -1.0


def draw_pole(rng, r_lo, r_hi):
    """Pole parameter, uniform over the annulus r_lo <= |a| < r_hi."""
    r = np.sqrt(rng.uniform(r_lo**2, r_hi**2))
    return r * np.exp(2j * np.pi * rng.random())


def draw_terms(rng, n, count):
    """`count` monomials of degree 4-6 in the 2n+2 real coordinates."""
    d = 2 * n + 2
    terms = {}
    while len(terms) < count:
        mi = np.zeros(d, dtype=int)
        for v in rng.integers(0, d, size=int(rng.integers(4, 7))):
            mi[v] += 1
        terms[tuple(int(m) for m in mi)] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    return terms


def perturbation(rng, q, count, h):
    """`count` random terms scaled to sup |s| = 1 on the boundary samples h,
    so epsilon alone sets the size of the perturbation along the start
    disc; draws whose polynomial vanishes on h are drawn again."""
    while True:
        terms = draw_terms(rng, q.n, count)
        probe = quadric.PerturbedHypersurface(base=q, epsilon=1.0, terms=terms)
        size = float(np.abs(probe.eval_rho_many(h.T) - q.eval_r_many(h.T)).max())
        if size > 1e-6:
            return [[list(mi), c / size] for mi, c in sorted(terms.items())]


def model_from(prob):
    q = quadric.Hyperquadric(n=prob["n"], A=_unpair(prob["A"]).reshape(prob["n"], prob["n"]))
    terms = {tuple(mi): c for mi, c in prob.get("terms", [])}
    m = quadric.PerturbedHypersurface(base=q, epsilon=prob.get("eps", 0.0), terms=terms)
    return q, m


def params_from(prob):
    n = prob["n"]
    return disc.DiscParams(
        y0=prob["y0"], v=np.zeros(n), w=_unpair(prob["w"]), a=complex(*prob["a"])
    )


def _centered_start(rng, n, a_lo, a_hi, sign=None):
    """Form, direction, pole and y0 of a centered disc.  With `sign`, the
    center's real part has that sign and its imaginary part is 0."""
    A = draw_hermitian(rng, n)
    if sign is not None:
        A = orient(A, sign)
    w = draw_w(rng, A, sign)
    a = draw_pole(rng, a_lo, a_hi)
    y0 = 0.0 if sign is not None else float(rng.uniform(-0.5, 0.5))
    return A, w, a, y0


# ---------------------------------------------------------------------------
# continuation: Newton continuation from a closed-form start
# ---------------------------------------------------------------------------


class Continuation:
    """solve_with_homotopy from a closed-form disc, then family_dimension.

    Cycle of 24 slots, two per (n, grid size, pinned) cell.  Three
    slots sit well above the truncation floor |a|^M ~ tol (|a| ~ 0.35 and
    0.45 for M = 24 and 32) and fail by design; the others keep |a| clear
    of it (up to 0.45 on M = 48, whose floor is at 0.59) and converge.
    epsilon = 1e-3 goes to n = 1 on the finer grids only: elsewhere the
    discretization floor, which grows with epsilon, lands near tol and
    makes the outcome a coin toss from seed to seed.  The term count runs
    over 1..8, lowest on the costly cells and on the failing ones, to
    even out the cost of a slot.
    """

    name = "continuation"
    cycle = 24
    deadline_s = 10.0
    # n, grid size, pinned, |a| band, epsilon, terms
    SLOTS = (
        (1, 0, False, (0.00, 0.15), 1e-4, 8),
        (2, 1, True, (0.15, 0.30), 1e-4, 3),
        (1, 2, False, (0.30, 0.45), 1e-4, 4),
        (2, 0, False, (0.50, 0.60), 1e-4, 1),
        (1, 1, True, (0.00, 0.15), 1e-3, 6),
        (2, 2, True, (0.15, 0.30), 1e-4, 2),
        (1, 0, True, (0.45, 0.55), 1e-4, 1),
        (2, 1, False, (0.00, 0.15), 1e-4, 3),
        (1, 2, True, (0.15, 0.30), 1e-3, 5),
        (2, 0, True, (0.15, 0.30), 1e-4, 3),
        (1, 1, False, (0.52, 0.60), 1e-4, 2),
        (2, 2, False, (0.00, 0.15), 1e-4, 1),
        (1, 0, False, (0.15, 0.30), 1e-4, 5),
        (2, 0, True, (0.00, 0.15), 1e-4, 4),
        (1, 1, False, (0.15, 0.30), 1e-3, 7),
        (1, 2, False, (0.00, 0.15), 1e-3, 2),
        (2, 1, True, (0.00, 0.15), 1e-4, 2),
        (1, 0, True, (0.00, 0.15), 1e-4, 6),
        (2, 2, True, (0.00, 0.15), 1e-4, 1),
        (1, 1, True, (0.15, 0.30), 1e-3, 4),
        (2, 0, False, (0.15, 0.30), 1e-4, 5),
        (1, 2, True, (0.00, 0.15), 1e-4, 3),
        (2, 1, False, (0.30, 0.42), 1e-4, 2),
        (2, 2, False, (0.15, 0.30), 1e-4, 1),
    )

    def generate(self, rng, count=24):
        out = []
        for i in range(count):
            n, size, pin, (a_lo, a_hi), eps, nterms = self.SLOTS[i % self.cycle]
            A, w, a, y0 = _centered_start(rng, n, a_lo, a_hi, slot_sign(i % self.cycle))
            q = quadric.Hyperquadric(n=n, A=A)
            N, M = SIZES[size]
            p = disc.DiscParams(y0=y0, v=np.zeros(n), w=w, a=a)
            h = disc.Disc(q, p).boundary(N)
            out.append(
                {
                    "n": n,
                    "A": _pairs(A),
                    "w": _pairs(w),
                    "a": [a.real, a.imag],
                    "y0": y0,
                    "eps": eps,
                    "terms": perturbation(rng, q, nterms, h),
                    "N": N,
                    "M": M,
                    "pin": pin,
                }
            )
        return out

    def build(self, prob):
        q, m = model_from(prob)
        p = params_from(prob)
        pin = None
        if prob["pin"]:
            pin = np.zeros(q.n + 1, dtype=complex)
            pin[0] = disc.Disc(q, p, check=False).center()[0]
        cfg = rh_solver.SolveConfig(N=prob["N"], M=prob["M"], max_iter=MAX_ITER)
        return {"m": m, "p": p, "cfg": cfg, "pin": pin}

    def run(self, obj):
        sol = rh_solver.solve_with_homotopy(obj["m"], obj["p"], obj["cfg"], pin_center=obj["pin"])
        fd = rh_solver.family_dimension(obj["m"], sol, obj["cfg"])
        return sol, fd

    def check(self, obj, value):
        sol, fd = value
        cfg, pin, n = obj["cfg"], obj["pin"], obj["m"].n
        if not sol.residual_sup < cfg.tol:
            raise CheckFailed("residual_above_tol", f"{sol.residual_sup:.3e}")
        if not np.max(sol.lift_defects) <= 10.0 * cfg.tol:
            raise CheckFailed("lift_defect_above_10tol", f"{np.max(sol.lift_defects):.3e}")
        expect = 2 * n + 1 if pin is not None else 4 * n + 3
        if fd["dim"] != expect:
            raise CheckFailed("family_dimension", f"{fd['dim']} != {expect}")
        if pin is not None and not np.array_equal(sol.center(), pin):
            raise CheckFailed("pinned_center_moved")


# ---------------------------------------------------------------------------
# symbols: boundary symbols and their indices
# ---------------------------------------------------------------------------


class Symbols:
    """build_B with partial_indices (and maslov_index), or the replay chain.

    Cycle of 9 slots: each operation meets each n in {1, 2, 3} once.
    Centered discs with |a| < 0.9 reach the gradient-symbol factorization
    pocket at n = 3 and at n = 2 with |a| > 0.6.  The first few
    closed-form problems are also checked against the Toeplitz oracle.
    """

    name = "symbols"
    cycle = 9
    deadline_s = 10.0
    kinds = ("closed", "gradient", "replay")
    oracle_subset = 4

    def generate(self, rng, count=540):
        out = []
        for i in range(count):
            k = i % self.cycle
            n = 1 + (k // 3)
            A, w, a, y0 = _centered_start(rng, n, 0.0, A_MAX_SYMBOL)
            out.append(
                {
                    "kind": self.kinds[k % 3],
                    "n": n,
                    "A": _pairs(A),
                    "w": _pairs(w),
                    "a": [a.real, a.imag],
                    "y0": y0,
                }
            )
        return out

    def build(self, prob):
        q, _m = model_from(prob)
        return {"kind": prob["kind"], "q": q, "p": params_from(prob)}

    def run(self, obj):
        q, p = obj["q"], obj["p"]
        if obj["kind"] == "closed":
            B = indices.build_B(q, p, source="closed_form")
            return indices.partial_indices(B), indices.maslov_index(B)
        if obj["kind"] == "gradient":
            B = indices.build_B(q, p, source="gradient")
            return indices.partial_indices(B), None
        return indices.verify_reduction_chain(q, p)

    def check(self, obj, value):
        n = obj["q"].n
        total = 2 * n + 2
        if obj["kind"] == "replay":
            if value.kappa_gradient != value.kappa_closed:
                raise CheckFailed("replay_kappa_mismatch")
            if value.det_winding != total:
                raise CheckFailed("replay_winding", str(value.det_winding))
            return
        pi, mas = value
        if pi.total != total:
            raise CheckFailed("kappa_sum", f"{pi.total} != {total}")
        if obj["kind"] == "closed":
            if mas != total:
                raise CheckFailed("maslov_index", f"{mas} != {total}")
            if min(pi.kappa) < 0:
                raise CheckFailed("closed_kappa_negative", str(pi.kappa))
        else:
            closed = indices.partial_indices(indices.build_B(obj["q"], obj["p"]))
            if pi != closed:
                raise CheckFailed("gradient_kappa_differs", f"{pi.kappa} vs {closed.kappa}")

    def oracle_objects(self, objs):
        """The fixed subset checked against the Toeplitz oracle: the first
        closed-form problems inside the range the oracle is tested on
        (n <= 2, |a| <= 0.6)."""
        picked = [o for o in objs
                  if o["kind"] == "closed" and o["q"].n <= 2 and abs(o["p"].a) <= 0.6]
        return picked[: self.oracle_subset]

    def oracle(self, obj):
        B = indices.build_B(obj["q"], obj["p"], source="closed_form")
        return indices.toeplitz_kernel_indices(B, order=64)


# ---------------------------------------------------------------------------
# cli-startup: one subprocess per command line
# ---------------------------------------------------------------------------


def _center_point(rng, A):
    """Admissible center p0, with Re p0 of a sign the form allows."""
    ev = np.linalg.eigvalsh(A)
    sx = 1.0 if ev[0] > 0 else -1.0 if ev[-1] < 0 else float(rng.choice([-1.0, 1.0]))
    return complex(sx * rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))


def _centered_params(q, p0, u, a):
    """Disc centered at (p0, 0) with direction u and pole a."""
    quad = float(np.real(u.conj() @ q.A @ u))
    w = u * np.sqrt(p0.real * (1.0 - abs(a) ** 2) / quad)
    return disc.DiscParams(y0=p0.imag, v=np.zeros(q.n), w=w, a=a)


class CliStartup:
    """One `python -m statdisc.cli <sub>` process per operation.

    Cycle of 27 slots: the nine subcommands in a fixed order, each with
    n = 1, 2, 3.  Arguments come from the `symbols` ranges, except that
    `solve` keeps |a| <= 0.5 so that its epsilon = 0 start is exact at
    the default truncation and the call stays a start-up measurement
    (the solver's truncation floor is measured by `continuation`).
    """

    name = "cli-startup"
    subcommands = (
        "disc-make",
        "disc-through",
        "disc-invert",
        "verify",
        "lift",
        "indices-maslov",
        "indices-partial",
        "indices-replay",
        "solve",
    )
    cycle = 27
    deadline_s = 30.0

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def generate(self, rng, count=54):
        out = []
        for i in range(count):
            k = i % self.cycle
            sub = self.subcommands[k % 9]
            n = 1 + k // 9
            a_max = 0.5 if sub == "solve" else A_MAX_SYMBOL
            A, w, a, y0 = _centered_start(rng, n, 0.0, a_max)
            prob = {
                "sub": sub,
                "n": n,
                "A": _pairs(A),
                "w": _pairs(w),
                "a": [a.real, a.imag],
                "y0": y0,
            }
            if sub == "disc-through":
                q = quadric.Hyperquadric(n=n, A=A)
                p0 = _center_point(rng, A)
                u = draw_w(rng, A, 1.0 if p0.real > 0 else -1.0)
                start = _centered_params(q, p0, u, draw_pole(rng, 0.0, A_MAX_SYMBOL))
                prob["p0"] = [p0.real, p0.imag]
                prob["z"] = _pairs(disc.Disc(q, start).at(np.array(1.0 + 0.0j)))
            out.append(prob)
        return out

    def build(self, prob, index):
        """Write the model (and boundary CSV) files; return the argv."""
        os.makedirs(self.workdir, exist_ok=True)
        n = prob["n"]
        q = quadric.Hyperquadric(n=n, A=_unpair(prob["A"]).reshape(n, n))
        model = os.path.join(self.workdir, f"model{index}.json")
        with open(model, "w") as fh:
            json.dump(q.to_json(), fh)
        sub = prob["sub"]
        argv = [sub, f"--A={model}"]
        if sub == "disc-through":
            argv.append(f"--p0={_cli_complex(complex(*prob['p0']))}")
            argv.append("--z=" + ",".join(_cli_complex(z) for z in _unpair(prob["z"])))
        elif sub in ("disc-invert", "verify"):
            csv = os.path.join(self.workdir, f"boundary{index}.csv")
            with open(csv, "w") as fh:
                fh.write(cli.boundary_csv(disc.make_disc(q, params_from(prob)).boundary(256)))
            argv.append(f"--input={csv}")
        else:
            argv.append("--w=" + ",".join(_cli_complex(z) for z in _unpair(prob["w"])))
            argv.append(f"--a={_cli_complex(complex(*prob['a']))}")
            argv.append(f"--y0={prob['y0']!r}")
        return argv

    def run(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "statdisc.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=self.deadline_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Refused("DeadlineExceeded")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, out, err

    def classify(self, value):
        """Refusal type of an exit-1 process, from its error JSON."""
        code, _out, err = value
        if code != 1:
            return None
        try:
            return json.loads(err.decode().strip().splitlines()[-1])["error"]
        except (ValueError, KeyError, IndexError):
            return None

    def reference(self, argv):
        """stdout and exit code of cli.main(argv) run in this process."""
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            code = cli.main(list(argv))
        return code, buf_out.getvalue().encode()

    def check(self, argv, value, reference):
        code, out, _err = value
        ref_code, ref_out = reference
        if code != 0:
            raise CheckFailed("exit_code", str(code))
        if ref_code != 0 or out != ref_out:
            raise CheckFailed("stdout_differs_from_in_process_main")


def _cli_complex(z):
    return repr(complex(z)).strip("()")

