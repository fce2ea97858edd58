"""Benchmark entry point for vi-ident.

One workload (the form the benchmark contract uses):

    python3 bench/run.py --workload forward_2d --seed 1 --seconds 50 --trace 0

All three workloads, each untraced and traced in its own process, with a
summary that includes the tracing overhead:

    python3 bench/run.py --suite --seed 1 --seconds 50

Each workload runs in a child process (``bench/worker.py``) whose environment
pins OpenBLAS/OpenMP to one thread and imports ``vi_ident`` from this
checkout's ``src``.  The child's output is relayed; its last line is the JSON
result.  Per-run records and trace spans are written to ``bench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("forward_2d", "ident_joint_1d", "continuation_cli_2d")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload, seed, seconds, trace, extra=(), timeout=CHILD_TIMEOUT_S):
    """Run one workload in a child process; returns (exit code, stdout)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.stderr.write(f"bench: {workload} did not finish within {timeout} s\n")
        return 1, ""
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:  # no result line may reach stdout
        sys.stderr.write(proc.stdout)
        return proc.returncode, ""
    return 0, proc.stdout


def suite(seed, seconds, extra) -> int:
    """Every workload untraced, then traced; print the summary and overhead."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            code, out = run_workload(workload, seed, seconds, trace, extra, timeout=None)
            sys.stdout.write(out)
            if code != 0:
                status = code
                continue
            entry[f"trace{trace}"] = json.loads(out.strip().splitlines()[-1])
        if len(entry) == 2:
            plain = entry["trace0"]["metrics"]["solved_per_s"]["value"]
            traced = entry["trace1"]["metrics"]["trace.solved_per_s"]["value"]
            entry["tracing_overhead"] = 1.0 - traced / plain if plain else None
        summary[workload] = entry

    print("\nsummary (failed_frac = failed / attempted; overhead = 1 - traced/untraced solved_per_s)")
    for workload, entry in summary.items():
        if "trace0" not in entry:
            print(f"  {workload}: failed to run")
            continue
        res = entry["trace0"]
        m = res["metrics"]
        overhead = entry.get("tracing_overhead")
        print(
            f"  {workload:<20} solved_per_s {m['solved_per_s']['value']:.4g} 1/s, "
            f"op_s_p50 {m['op_s_p50']['value']:.4g} s (n={res['attempted']}), "
            f"failed_frac {res['failed'] / res['attempted']:.4f} ratio, "
            f"setup_s {m['setup_s']['value']:.4g} s, "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.4g} MiB, "
            f"tracing overhead {'n/a' if overhead is None else f'{overhead:.3f}'}"
        )
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"suite-{stamp}-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vi-ident benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--suite", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--newton-cap", type=int, default=None,
                        help="fault injection: cap every Newton solve at this many iterations")
    args = parser.parse_args(argv)
    if args.suite == (args.workload is not None):
        parser.error("give exactly one of --workload and --suite")
    if not (ROOT / "src" / "vi_ident" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no vi_ident package under {ROOT / 'src'}\n")
        return 2

    extra = ["--size", args.size]
    if args.newton_cap is not None:
        extra += ["--newton-cap", str(args.newton_cap)]
    if args.suite:
        return suite(args.seed, args.seconds, extra)
    code, out = run_workload(args.workload, args.seed, args.seconds, args.trace, extra)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
