"""Run one benchmark workload in this process and print its result line.

Started by ``bench/run.py``, which pins BLAS/OpenMP to one thread and puts the
checkout's ``src`` on ``PYTHONPATH``.  The run is a closed loop with one
client: each operation starts when the previous one has returned.

Phases: warm-up (imports, first factorization, one small solve of each kind
and one small CLI run), set-up repeated until its median is steady, the timed
phase (whole rounds of operations until ``--seconds`` would be exceeded, at
least one round), then the correctness checks.  The last line on stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
import vi_ident

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

# vi_ident must come from this checkout, not from an installed copy.
if ROOT / "src" not in Path(vi_ident.__file__).resolve().parents:
    sys.exit(f"bench: vi_ident imported from {vi_ident.__file__}, not from {ROOT / 'src'}")

from vi_ident import forward  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "solved_per_s": "1/s",
    "op_s_p50": "s",
    "passed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 1.0


def _blas(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def warm_up(workdir: Path) -> None:
    """Pay import and first-call costs before anything is timed: the first
    factorization, one small solve of each kind and one small CLI run."""
    from vi_ident import cli
    from vi_ident.discretization import ellipticity_field, friction_field, unit_square_mesh
    from vi_ident.kernels import KERNEL_NAMES, get_kernel

    mesh = unit_square_mesh(4)
    e, f = ellipticity_field(mesh, 1.0), friction_field(mesh, 0.3)
    problem = forward.Problem(mesh)
    forward.solution_map(e, f, 0.0, problem)
    for name in KERNEL_NAMES:
        forward.solution_map(e, f, 1e-2, problem, get_kernel(name))
    config = workloads.continuation_setup(0, "tiny", workdir).configs[0]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["continuation", "--config", str(config), "--out", str(workdir / "warm-up")])


def run_setup(workload, seed: int, size: str, workdir: Path):
    """Repeat set-up (at least 3 times, up to 1 s or 200 times); median time."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, size, workdir)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times), len(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload, inputs, seconds: float, tracer) -> tuple[list, float, float]:
    """Closed loop over whole rounds; stop before a round that would overrun.

    Also returns the process's peak RSS at the end of the first round: the
    heap keeps growing over later rounds, and how many rounds fit in the run
    depends on the machine's speed at the time.
    """
    outcomes: list[workloads.Outcome] = []
    rss = None
    start = time.perf_counter()
    for ops in workload.rounds(inputs):
        elapsed = time.perf_counter() - start
        if outcomes and elapsed + elapsed / len(outcomes) * len(ops) > seconds:
            break
        for label, fn in ops:
            gc.collect()  # start every operation from the same heap state
            if tracer is not None:
                tracer.current_op = len(outcomes)
            t0 = time.perf_counter()
            result, error = workloads.call(fn)
            outcomes.append(workloads.Outcome(label, time.perf_counter() - t0, result, error))
        rss = rss or peak_rss_mb()
    return outcomes, time.perf_counter() - start, rss


def op_median(outcomes, timed_s: float) -> float:
    """Median operation time, a failed operation counting as +inf.

    When more than half failed the median is infinite; it is then reported as
    the timed-phase length, the time within which the median operation did
    not produce a verified answer.
    """
    times = [o.seconds if o.status == workloads.OK else float("inf") for o in outcomes]
    median = statistics.median(times)
    return median if np.isfinite(median) else timed_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--newton-cap", type=int, default=None,
        help="fault injection: cap every Newton solve at this many iterations",
    )
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        warm_up(workdir)
        if args.newton_cap is not None:
            forward.solve_regularized = functools.partial(
                forward.solve_regularized, max_iter=args.newton_cap
            )
        if tracer is not None:
            tracer.install()
        inputs, setup_s, n_setups = run_setup(workload, args.seed, args.size, workdir)
        outcomes, timed_s, rss = run_timed(workload, inputs, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        workload.check(inputs, outcomes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    passed = sum(o.status == workloads.OK for o in outcomes)
    wrong = sum(o.status == workloads.WRONG for o in outcomes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        values = tracing.layer_metrics(tracer, attempted, n_setups, passed, timed_s)
        units = tracing.LAYER_METRICS
        tracer.save(RESULTS / f"{tag}-spans.npz")
    else:
        values = {
            "solved_per_s": passed / timed_s,
            "op_s_p50": op_median(outcomes, timed_s),
            "passed_frac": passed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_repeats": n_setups,
        "timed_s": timed_s,
        "missing_hooks": tracer.missing if tracer is not None else [],
        "operations": [
            {"label": o.label, "seconds": o.seconds, "status": o.status, "reason": o.reason}
            for o in outcomes
        ],
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} (size {args.size}), seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    failed = attempted - passed
    print(f"  operations      {attempted} in {timed_s:.2f} s, {failed} failed "
          f"(failed_frac {failed / attempted:.4f} ratio), {wrong} wrong answers")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if tracer is not None and tracer.missing:
        print("  hooks not found (their metrics read 0): " + ", ".join(tracer.missing))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
