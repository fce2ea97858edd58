"""Config parsing, CSV/manifest emission, and CLI behaviour."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from vi_ident import ConfigError
from vi_ident.cli import main
from vi_ident.config import emit_csv, parse_config, read_csv
from vi_ident.experiments import run_experiment

MINIMAL_FORWARD = """
problem:
  mesh: {dimension: 1, n: 32}
experiment:
  kind: forward
  eps: 0.0
"""

IDENTIFY_TWIN = """
problem:
  mesh: {dimension: 1, n: 32}
kernel: sigmoid
experiment:
  kind: identify
  eps: 1.0e-4
  alpha: 1.0e-8
  beta: 1.0e-8
  stop_tol: 1.0e-9
  initial_friction: 0.1
  true_friction: 0.25
"""


def write(tmp_path: Path, text: str, name="cfg.yaml") -> Path:
    p = tmp_path / name
    p.write_text(text)
    return p


# --- parsing ----------------------------------------------------------------------


def test_parse_minimal_config_applies_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_FORWARD))
    assert cfg.kernel == "sqrt"
    assert cfg.problem["mesh"] == {"dimension": 1, "n": 32, "interval": [0.0, 1.0]}
    assert cfg.solver["newton_tol"] == 1e-12
    assert cfg.experiment == {"kind": "forward", "eps": 0.0}
    assert cfg.output == "out"


def test_parse_identify_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, IDENTIFY_TWIN))
    exp = cfg.experiment
    assert exp["kind"] == "identify"
    assert exp["free_e"] is False and exp["free_f"] is True
    assert exp["max_iters"] == 500
    assert exp["initial_friction"] == 0.1


@pytest.mark.parametrize(
    "text,needle",
    [
        ("experiment: {kind: forward}", "problem"),
        ("problem: {mesh: {dimension: 3, n: 4}}\nexperiment: {kind: forward}", "dimension"),
        ("problem: {mesh: {dimension: 1, n: 0}}\nexperiment: {kind: forward}", "mesh.n"),
        (MINIMAL_FORWARD + "kernel: gauss", "kernel"),
        (MINIMAL_FORWARD.replace("kind: forward", "kind: dance"), "experiment.kind"),
        (
            "problem:\n  mesh: {dimension: 1, n: 8}\n  friction: {lower: 2.0, upper: 1.0}\n"
            "experiment: {kind: forward}",
            "friction",
        ),
        (
            "problem: {mesh: {dimension: 1, n: 8}}\n"
            "experiment: {kind: continuation, eps_schedule: [1.0e-3, 1.0e-2]}",
            "eps_schedule",
        ),
        (  # an integer field is not truncated to 5
            "problem: {mesh: {dimension: 1, n: 8}}\nexperiment: {kind: kernel-check, t_points: 5.9}",
            "experiment.t_points",
        ),
    ],
)
def test_parse_errors_name_the_field(tmp_path, text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text))
    assert needle in str(err.value)


def test_parse_rejects_directory_path(tmp_path):
    # Path("") resolves to "." — a directory must not leak an OS traceback
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path)
    assert main(["solve-forward", "--config", ""]) == 2


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.yaml")
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "a: [unterminated"))


# --- CSV round trip ----------------------------------------------------------------


def test_csv_round_trip_preserves_doubles(tmp_path):
    rows = [[0, 0.1 + 0.2], [1, 1e-300], [2, np.pi]]
    path = tmp_path / "t.csv"
    emit_csv(rows, path, ["i", "x"])
    header, back = read_csv(path)
    assert header == ["i", "x"]
    for (i, x), (j, y) in zip(rows, back):
        assert float(i) == j and float(x) == y  # bitwise, thanks to repr


# --- experiment runs -----------------------------------------------------------------


def test_forward_run_writes_solution_and_manifest(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_FORWARD))
    results, manifest = run_experiment(cfg, tmp_path / "out", seed=0)
    assert results["checks_passed"]
    header, rows = read_csv(tmp_path / "out" / "solution.csv")
    assert header[:2] == ["node", "x"]
    assert len(rows) == 33
    # tip of the default twin problem: u(1) = 1/2 - 0.25
    assert abs(rows[-1][-1] - 0.25) < 1e-3
    data = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert data["seed"] == 0
    assert data["config"]["experiment"]["kind"] == "forward"
    assert "numpy" in data["versions"] and "vi_ident" in data["versions"]
    assert data["wall_time_s"] > 0


def test_identify_run_artifacts(tmp_path):
    cfg = parse_config(write(tmp_path, IDENTIFY_TWIN))
    results, _ = run_experiment(cfg, tmp_path / "out", seed=0)
    assert results["checks_passed"]
    assert results["f_error_max"] < 1e-3
    header, iters = read_csv(tmp_path / "out" / "iterations.csv")
    assert header == ["iter", "objective", "stationarity_e", "stationarity_f"]
    objs = [row[1] for row in iters]
    assert all(b <= a + 1e-15 for a, b in zip(objs[:-1], objs[1:]))
    header, params = read_csv(tmp_path / "out" / "parameters.csv")
    f_rows = [r for r in params if r[0] == "friction"]
    assert len(f_rows) == 1
    assert abs(f_rows[0][2] - 0.25) < 1e-3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["results"]["stop_reason"] == "stationary"


def test_identical_seeds_reproduce_csv_bytes(tmp_path):
    text = IDENTIFY_TWIN + "  noise_level: 0.01\n"
    cfg = parse_config(write(tmp_path, text))
    run_experiment(cfg, tmp_path / "a", seed=3)
    run_experiment(cfg, tmp_path / "b", seed=3)
    run_experiment(cfg, tmp_path / "c", seed=4)
    for name in ("iterations.csv", "parameters.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "parameters.csv").read_bytes() != (
        tmp_path / "c" / "parameters.csv"
    ).read_bytes()


# --- CLI ------------------------------------------------------------------------------


def test_cli_solve_forward_success(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL_FORWARD)
    code = main(["solve-forward", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "manifest:" in out
    assert (tmp_path / "o" / "solution.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = write(tmp_path, "not: a real config")
    assert main(["solve-forward", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_kind_mismatch(tmp_path, capsys):
    cfg_path = write(tmp_path, MINIMAL_FORWARD)
    assert main(["identify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "experiment.kind" in err


def test_cli_rejects_negative_noise_level(tmp_path, capsys):
    cfg_path = write(tmp_path, IDENTIFY_TWIN + "  noise_level: -0.1\n")
    assert main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "experiment.noise_level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# (field named in the error, subcommand, config text)
MALFORMED = [
    ("experiment.alpha", "identify", IDENTIFY_TWIN.replace("alpha: 1.0e-8", "alpha: abc")),
    ("solver.newton_tol", "identify", IDENTIFY_TWIN + "solver: {newton_tol: fast}\n"),
    ("experiment.stop_tol", "identify", IDENTIFY_TWIN.replace("stop_tol: 1.0e-9", "stop_tol: []")),
    (
        "problem.ellipticity.lower",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  ellipticity: {lower: low}"),
    ),
    (
        "problem.friction.value",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  friction: {value: high}"),
    ),
    (  # outside the default bounds [0, 5]
        "problem.friction.value",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  friction: {value: 9.0}"),
    ),
    (  # one value per element: 32 expected
        "problem.ellipticity.value",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  ellipticity: {value: [1.0, 2.0]}"),
    ),
    (
        "experiment.eps_schedule",
        "continuation",
        "problem: {mesh: {dimension: 1, n: 8}}\n"
        "experiment: {kind: continuation, eps_schedule: [1.0e-1, x]}",
    ),
    (
        "experiment.t_points",
        "kernel-check",
        "problem: {mesh: {dimension: 1, n: 8}}\nexperiment: {kind: kernel-check, t_points: many}",
    ),
    ("experiment.max_iters", "identify", IDENTIFY_TWIN + "  max_iters: 15.5\n"),  # not truncated to 15
    (
        "experiment.kernels",
        "rate-study",
        "problem: {mesh: {dimension: 1, n: 8}}\nexperiment: {kind: rate-study, kernels: 5}",
    ),
]


@pytest.mark.parametrize("field,command,text", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, field, command, text):
    cfg_path = write(tmp_path, text)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_strict_fails_on_unmet_checks(tmp_path, capsys):
    # a gradient check with an impossible tolerance must fail under --strict
    text = (
        "problem:\n  mesh: {dimension: 1, n: 16}\n"
        "kernel: sigmoid\n"
        "experiment:\n  kind: gradient-check\n  n_directions: 2\n  tolerance: 1.0e-30\n"
    )
    cfg_path = write(tmp_path, text)
    out_dir = str(tmp_path / "o")
    assert main(["check-gradient", "--config", str(cfg_path), "--out", out_dir]) == 0
    assert main(["check-gradient", "--config", str(cfg_path), "--out", out_dir, "--strict"]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_gradient_check_passes_at_normal_tolerance(tmp_path):
    text = (
        "problem:\n  mesh: {dimension: 1, n: 32}\n"
        "kernel: sigmoid\n"
        "experiment:\n  kind: gradient-check\n  n_directions: 3\n  tolerance: 1.0e-5\n"
    )
    cfg_path = write(tmp_path, text)
    out_dir = tmp_path / "o"
    assert main(["check-gradient", "--config", str(cfg_path), "--out", str(out_dir), "--strict"]) == 0
    header, rows = read_csv(out_dir / "gradient_check.csv")
    assert header == ["direction", "adjoint_gradient", "fd_gradient", "relative_error"]
    assert len(rows) == 3
    assert max(r[3] for r in rows) <= 1e-5


def test_cli_kernel_check(tmp_path):
    text = (
        "problem:\n  mesh: {dimension: 1, n: 8}\n"
        "experiment:\n  kind: kernel-check\n  t_points: 51\n"
        "  eps_list: [1.0, 0.1, 0.01]\n"
    )
    cfg_path = write(tmp_path, text)
    assert main(["kernel-check", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"]) == 0
    header, rows = read_csv(tmp_path / "o" / "kernel_check.csv")
    assert [r[0] for r in rows] == sorted(["sigmoid", "sqrt", "uniform_centered", "uniform_shifted"])
    assert all(r[1] <= 1.0 + 1e-9 and r[2] <= 1.0 + 1e-9 for r in rows)


def test_cli_rate_study(tmp_path):
    # stick regime: the regularization error decays like eps for every kernel
    text = (
        "problem:\n  mesh: {dimension: 1, n: 32}\n  friction: {value: 1.0}\n"
        "experiment:\n  kind: rate-study\n  kernels: [sigmoid, sqrt, uniform_shifted]\n"
        "  eps_list: [1.0e-1, 1.0e-2, 1.0e-3]\n"
    )
    cfg_path = write(tmp_path, text)
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"]) == 0
    _, rows = read_csv(tmp_path / "o" / "rate_study.csv")
    assert len(rows) == 9 and all(r[3] == "ok" for r in rows)
    _, slopes = read_csv(tmp_path / "o" / "slopes.csv")
    assert [r[0] for r in slopes] == ["sigmoid", "sqrt", "uniform_shifted"]
    assert all(0.9 <= r[1] <= 1.1 for r in slopes)


def test_cli_solve_forward_2d_writes_both_coordinates(tmp_path):
    text = MINIMAL_FORWARD.replace("{dimension: 1, n: 32}", "{dimension: 2, n: 4}")
    cfg_path = write(tmp_path, text)
    assert main(["solve-forward", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "solution.csv")
    assert header == ["node", "x", "y", "value"]
    assert len(rows) == 25


def test_cli_continuation_smoke(tmp_path):
    text = (
        "problem:\n  mesh: {dimension: 1, n: 16}\n"
        "kernel: sigmoid\n"
        "experiment:\n  kind: continuation\n  eps_schedule: [1.0e-1, 1.0e-2, 1.0e-3]\n"
        "  initial_friction: 1.0\n  stop_tol: 1.0e-8\n"
    )
    cfg_path = write(tmp_path, text)
    assert main(["continuation", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"]) == 0
    header, rows = read_csv(tmp_path / "o" / "continuation.csv")
    assert header[0] == "level"
    assert len(rows) == 3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert len(manifest["results"]["stop_reasons"]) == 3


def test_cli_seed_changes_noisy_results(tmp_path):
    text = IDENTIFY_TWIN + "  noise_level: 0.02\n"
    cfg_path = write(tmp_path, text)
    main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "1"])
    main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "2"])
    p1 = (tmp_path / "s1" / "parameters.csv").read_bytes()
    p2 = (tmp_path / "s2" / "parameters.csv").read_bytes()
    assert p1 != p2
