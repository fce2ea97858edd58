"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every workload builds its inputs from the benchmark seed alone; the package
only ever sees the generated arrays or YAML files.  Operations call the
package through module attributes looked up at call time (``forward.
solution_map``, ``identify.identify``, ``cli.main``), so a traced run goes
through the tracer's wrappers and an untraced run through the originals.

Checks run after the timed phase and recompute what they test from the
assembled operator, instead of trusting the residuals the solvers report.
See ``bench/README.md`` for why each workload exists and what it predicts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from vi_ident import cli, forward
from vi_ident.adjoint import LinearizedMap, adjoint_solve, reduced_gradients
from vi_ident.discretization import (
    assemble_operator,
    ellipticity_field,
    friction_field,
    h1_gram,
    interval_mesh,
    unit_square_mesh,
)
from vi_ident.errors import SolverError
from vi_ident.forward import Problem, solve_regularized
from vi_ident.identify import IdentificationConfig
from vi_ident.kernels import KERNEL_NAMES, get_kernel, modulus_smooth

# The package re-exports the function ``identify`` under the submodule's name.
identify = importlib.import_module("vi_ident.identify")

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Outcome:
    """One timed operation: its label, wall time, return value or error message."""

    label: str
    seconds: float
    result: object = None
    error: str | None = None
    status: str = ""
    reason: str = ""


def call(fn):
    """Return (result, error message); only the package's own SolverError is
    an outcome, anything else is a defect that stops the run.  The exception
    itself is dropped so its traceback does not keep the solver's frames and
    matrices alive."""
    try:
        return fn(), None
    except SolverError as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# forward_2d: cold solution_map solves on the unit square.
# ---------------------------------------------------------------------------

FORWARD_N = {"full": 128, "tiny": 8}
FORWARD_EPS = (1e-4, 1e-6)
# Half-width of the seeded phase band.  The Newton failure pattern is not
# smooth in the inputs: with phases in +-0.05 the sqrt kernel at eps = 1e-6
# converges for some seeds and stalls for others, so the band is kept where
# every seed solves the same case up to rounding-level jitter.
PHASE_BAND = 1e-6
ORACLE_CHECK_TOL = 1e-9  # 10x the oracle's default stopping tolerance
NEWTON_CHECK_TOL = 1e-11  # 10x the Newton solver's default tolerance


def _forward_source(x):
    return 10.0 * np.sin(3.0 * np.pi * x[:, 0]) * np.cos(2.0 * np.pi * x[:, 1])


@dataclass
class ForwardInputs:
    mesh: object
    e: object
    f: object
    kernels: dict


def forward_setup(seed: int, size: str, workdir: Path) -> ForwardInputs:
    phi, psi = np.random.default_rng(seed).uniform(-PHASE_BAND, PHASE_BAND, 2)
    mesh = unit_square_mesh(FORWARD_N[size])
    j = np.arange(mesh.n_elements)
    e = ellipticity_field(mesh, 1.0 + 0.9 * np.sin(7.0 * j + phi))
    x = mesh.nodes[mesh.friction_nodes, 0]
    f = friction_field(mesh, 0.5 + 0.5 * np.cos(5.0 * x + psi))
    kernels = {name: get_kernel(name) for name in KERNEL_NAMES}
    return ForwardInputs(mesh, e, f, kernels)


def forward_rounds(inp: ForwardInputs):
    """One round: the oracle, then every kernel at every eps, on a fresh Problem."""
    while True:
        problem = Problem(inp.mesh, source=_forward_source)
        ops = [("oracle", lambda p=problem: forward.solution_map(inp.e, inp.f, 0.0, p))]
        for name, eps in itertools.product(KERNEL_NAMES, FORWARD_EPS):
            kernel = inp.kernels[name]
            ops.append((
                f"{name}@{eps:g}",
                lambda p=problem, k=kernel, eps=eps: forward.solution_map(inp.e, inp.f, eps, p, k),
            ))
        yield ops


def prox_residual(K, load, u_free, pos, wf) -> float:
    """Natural residual of the friction VI: |u - prox(u - tau (K u - l))| / tau."""
    tau = 1.0 / max(abs(K).sum(axis=1).max(), 1.0)
    z = u_free - tau * (K @ u_free - load)
    prox = z.copy()
    prox[pos] = np.sign(z[pos]) * np.maximum(np.abs(z[pos]) - tau * wf, 0.0)
    return float(np.linalg.norm(u_free - prox) / tau)


def smoothing_bound(kernel, eps, wf, e_min) -> float:
    """A-priori bound on ||u_eps - u||_V for the unit square.

    |M_eps - |t|| <= 2 k eps gives E(u_eps) - E(u) <= 4 k eps sum(w f), and
    the energy's quadratic part gives ||u_eps - u||_K^2 <= 2 (E(u_eps) - E(u)).
    With v = 0 on x = 0 and x = 1, ||v||_L2^2 <= ||grad v||^2 / pi^2, so
    ||v||_V^2 <= (1 + 1/pi^2) / e_min * ||v||_K^2.  The small absolute slack
    covers the solvers' own stopping tolerances.
    """
    k_norm = np.sqrt(8.0 * kernel.absolute_mean_k * eps * wf.sum())
    return float(k_norm * np.sqrt((1.0 + 1.0 / np.pi**2) / e_min) + 1e-6)


def forward_check(inp: ForwardInputs, outcomes: list) -> None:
    mesh = inp.mesh
    op = assemble_operator(mesh, inp.e, "grad_grad", _forward_source)
    K, load = op.matrix, op.load
    gram = h1_gram(mesh)
    pos = mesh.friction_free_positions
    wf = mesh.friction_weights * inp.f.values
    reference = None
    for out in outcomes:
        if out.error is not None:
            out.status, out.reason = FAILED, f"SolverError: {out.error}"
            if out.label == "oracle":
                reference = None
            continue
        u = out.result.u[mesh.free_nodes]
        if out.label == "oracle":
            res = prox_residual(K, load, u, pos, wf)
            ok = res <= ORACLE_CHECK_TOL
            out.status, out.reason = (OK if ok else WRONG), f"prox residual {res:.2e}"
            reference = u if ok else None
            continue
        name, eps = out.label.split("@")
        kernel, eps = inp.kernels[name], float(eps)
        r = K @ u - load
        r[pos] += wf * modulus_smooth(kernel, eps, u[pos]).first_derivative
        rnorm = float(np.linalg.norm(r))
        if rnorm > NEWTON_CHECK_TOL:
            out.status, out.reason = WRONG, f"Newton residual {rnorm:.2e}"
        elif reference is None:
            out.status, out.reason = WRONG, "no verified oracle solution in this round"
        else:
            d = u - reference
            dist = float(np.sqrt(d @ (gram @ d)))
            bound = smoothing_bound(kernel, eps, wf, inp.e.values.min())
            ok = dist <= bound
            out.status = OK if ok else WRONG
            out.reason = f"residual {rnorm:.2e}, |u_eps - u|_V {dist:.2e} (bound {bound:.2e})"


# ---------------------------------------------------------------------------
# ident_joint_1d: joint (e, f) twin identification, acceptance criterion 8.
# ---------------------------------------------------------------------------

IDENT_N = {"full": 32, "tiny": 8}
IDENT_EPS = 1e-4
IDENT_MISFIT_GATE = 1e-10
# Criterion 8's joint start, and the seeded spread around it.  The tiny size
# (for the benchmark's own tests) starts at the true coefficients, where the
# optimizer stops after about a hundred iterations; any start off the truth
# takes thousands.
IDENT_START = {"full": (1.3, 0.1), "tiny": (1.0, 0.25)}
IDENT_SPREAD = {"full": (0.05, 0.02), "tiny": (0.0, 0.0)}


def _ident_config() -> IdentificationConfig:
    return IdentificationConfig(
        alpha=1e-8, beta=1e-8, eps_schedule=(IDENT_EPS,), max_iters=15000,
        stop_tol=1e-9, misfit_norm="V", forward_tol=1e-12,
    )


@dataclass
class IdentInputs:
    mesh: object
    observation: np.ndarray
    e0: object
    f0: object
    kernel: object
    config: IdentificationConfig


def ident_setup(seed: int, size: str, workdir: Path) -> IdentInputs:
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    (e_start, f_start), (de, df) = IDENT_START[size], IDENT_SPREAD[size]
    mesh = interval_mesh(0.0, 1.0, IDENT_N[size])
    problem = Problem(mesh)
    observation = identify.synthesize_observation(
        problem, ellipticity_field(mesh, 1.0), friction_field(mesh, 0.25)
    )
    e0 = ellipticity_field(mesh, e_start + de * u[0])
    f0 = friction_field(mesh, f_start + df * u[1])
    return IdentInputs(mesh, observation, e0, f0, get_kernel("sigmoid"), _ident_config())


def ident_rounds(inp: IdentInputs):
    while True:
        problem = Problem(inp.mesh)
        yield [("identify", lambda p=problem: identify.identify(
            inp.config, p, inp.observation, inp.e0, inp.f0, inp.kernel, IDENT_EPS,
        ))]


def ident_check(inp: IdentInputs, outcomes: list) -> None:
    """Criterion 8's joint gate, recomputed at the returned coefficients."""
    cfg = inp.config
    gram = h1_gram(inp.mesh)
    free = inp.mesh.free_nodes
    for out in outcomes:
        if out.error is not None:
            out.status, out.reason = FAILED, f"SolverError: {out.error}"
            continue
        res = out.result
        problem = Problem(inp.mesh)
        e, f = res.e_hat, res.f_hat
        state = solve_regularized(
            assemble_operator(inp.mesh, e), inp.mesh, f, inp.kernel, IDENT_EPS,
            tol=cfg.forward_tol, u0_full=res.final_state.u,
        )
        lm = LinearizedMap(state, problem, e, f, inp.kernel, IDENT_EPS)
        p = adjoint_solve(state, problem, e, f, inp.kernel, IDENT_EPS, inp.observation, "V", lm)
        bundle = reduced_gradients(state, p, problem, e, f, inp.kernel, IDENT_EPS, cfg.alpha, cfg.beta)
        stationarity = max(bundle.stationarity_e, bundle.stationarity_f)
        d = state.u[free] - inp.observation[free]
        misfit = 0.5 * float(d @ (gram @ d))
        ok = stationarity <= cfg.stop_tol and misfit <= IDENT_MISFIT_GATE
        out.status = OK if ok else WRONG
        out.reason = (
            f"{len(res.objective_history) - 1} iterations, stationarity {stationarity:.2e}, "
            f"misfit {misfit:.2e}"
        )


# ---------------------------------------------------------------------------
# continuation_cli_2d: the CLI continuation subcommand, in-process.
# ---------------------------------------------------------------------------

CONTINUATION_N = {"full": 16, "tiny": 4}
CONTINUATION_POOL = 32  # distinct seeded configs; more than a run can use
FRICTION_BAND = 0.01  # true_friction is drawn from 0.25 +- this
CONTINUATION_CSVS = ("continuation.csv", "parameters.csv")

_CONTINUATION_YAML = """\
problem:
  mesh: {{dimension: 2, n: {n}}}
  source: 10.0
  friction: {{value: 1.0, lower: 0.0, upper: 5.0}}
kernel: sqrt
experiment:
  kind: continuation
  eps_schedule: [1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4]
  free_e: false
  free_f: true
  initial_friction: 1.0
  true_friction: {true_friction!r}
"""


@dataclass
class ContinuationInputs:
    configs: list
    workdir: Path


def continuation_setup(seed: int, size: str, workdir: Path) -> ContinuationInputs:
    rng = np.random.default_rng(seed)
    frictions = 0.25 + rng.uniform(-FRICTION_BAND, FRICTION_BAND, CONTINUATION_POOL)
    configs = []
    for k, tf in enumerate(frictions):
        path = workdir / f"continuation-{k}.yaml"
        path.write_text(_CONTINUATION_YAML.format(n=CONTINUATION_N[size], true_friction=float(tf)))
        configs.append(path)
    return ContinuationInputs(configs, workdir)


def continuation_rounds(inp: ContinuationInputs):
    """The first config twice (the repeat is checked byte for byte), then one
    config per round, wrapping around the pool."""
    counter = itertools.count()

    def op(config):
        out_dir = inp.workdir / f"out-{next(counter)}"
        label = f"{config.stem}:{out_dir.name}"

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(
                    ["continuation", "--config", str(config), "--out", str(out_dir), "--strict"]
                )

        return label, run

    configs = itertools.cycle(inp.configs)
    first = next(configs)
    yield [op(first), op(first)]
    for config in configs:
        yield [op(config)]


def continuation_check(inp: ContinuationInputs, outcomes: list) -> None:
    first_bytes: dict[str, list] = {}
    for out in outcomes:
        config, out_dir = out.label.split(":")
        if out.error is not None or out.result != 0:
            out.status, out.reason = FAILED, out.error or f"exit code {out.result}"
            continue
        try:
            data = [(inp.workdir / out_dir / name).read_bytes() for name in CONTINUATION_CSVS]
        except OSError as exc:
            out.status, out.reason = WRONG, f"missing output: {exc}"
            continue
        if not all(b.count(b"\n") > 1 for b in data):
            out.status, out.reason = WRONG, "empty CSV output"
        elif config in first_bytes and first_bytes[config] != data:
            out.status, out.reason = WRONG, f"CSVs differ from the first run of {config}"
        else:
            repeat = config in first_bytes
            first_bytes.setdefault(config, data)
            out.status = OK
            out.reason = "exit 0, CSVs identical to the first run" if repeat else "exit 0"


@dataclass(frozen=True)
class Workload:
    setup: object
    rounds: object
    check: object


WORKLOADS = {
    "forward_2d": Workload(forward_setup, forward_rounds, forward_check),
    "ident_joint_1d": Workload(ident_setup, ident_rounds, ident_check),
    "continuation_cli_2d": Workload(continuation_setup, continuation_rounds, continuation_check),
}
