"""Config parsing, CSV/manifest emission, and CLI behaviour."""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from vi_ident import ConfigError, forward
from vi_ident.cli import _COMMAND_KINDS, main
from vi_ident.config import EXPERIMENT_KINDS, emit_csv, parse_config, read_csv
from vi_ident.experiments import _RUNNERS, run_experiment

from .helpers import format_cell

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

MESH_8 = "problem: {mesh: {dimension: 1, n: 8}}\n"


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
        (
            "problem: {mesh: {dimension: 1, n: 8, interval: [1.0, 0.0]}}\nexperiment: {kind: forward}",
            "problem.mesh.interval: expected [a, b] with a < b",
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


@pytest.mark.parametrize("text", ["a: [unterminated", "a: 1\n\tb: 2\n", "a: {b: 1\n"])
def test_malformed_yaml_is_the_same_config_error_with_either_loader(tmp_path, monkeypatch, capsys, text):
    bad, good = write(tmp_path, text), write(tmp_path, IDENTIFY_TWIN, "good.yaml")

    def outcome():
        with pytest.raises(ConfigError, match="not valid YAML") as err:
            parse_config(bad)
        code = main(["solve-forward", "--config", str(bad)])
        assert "config error" in capsys.readouterr().err
        return str(err.value).startswith(f"{bad}: not valid YAML ("), code, parse_config(good)

    assert hasattr(yaml, "CSafeLoader")  # PyYAML built with libyaml
    with_libyaml = outcome()
    monkeypatch.delattr(yaml, "CSafeLoader")  # a PyYAML without libyaml
    assert outcome() == with_libyaml == (True, 2, with_libyaml[2])


# --- CSV round trip ----------------------------------------------------------------


def test_csv_round_trip_preserves_doubles(tmp_path):
    rows = [[0, 0.1 + 0.2], [1, 1e-300], [2, np.pi]]
    path = tmp_path / "t.csv"
    emit_csv(rows, path, ["i", "x"])
    header, back = read_csv(path)
    assert header == ["i", "x"]
    for (i, x), (j, y) in zip(rows, back):
        assert float(i) == j and float(x) == y  # bitwise, thanks to repr


def test_emit_csv_writes_the_bytes_of_the_cell_by_cell_formatter(tmp_path):
    cells = [0.1 + 0.2, np.float64(np.pi), np.float64(-0.0), np.int64(-7), np.int64(2**62), 3, True, False,
             float("nan"), np.float64(np.nan), float("inf"), -float("inf"), -0.0, 1e-300, 5e-324, 1e16,
             "plain", "a,b", 'say "hi"', "two\nlines", " padded ", ""]
    rows = [cells, cells[::-1], tuple(cells[:3]), [1, 0.5, "x"], ("friction", 4, 0.25), iter([2, 0.75, "y"])]
    header = ["c%d" % i for i in range(len(cells))]
    path = tmp_path / "cells.csv"
    emit_csv(rows, path, header)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in rows[:-1] + [[2, 0.75, "y"]]:
        writer.writerow([format_cell(x) for x in row])
    assert path.read_bytes() == expected.getvalue().encode()


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
    assert manifest["results"]["forward_solves"] >= len(iters)


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


# (text the error must hold: the field it names, often with the rule broken;
# subcommand; config text)
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
    # a boolean is not a number, and only true/false is a boolean
    (
        "experiment.t_points: expected an integer, got True",
        "kernel-check",
        MESH_8 + "experiment: {kind: kernel-check, t_points: true}",
    ),
    (
        "experiment.eps_list entry: expected a real number, got True",
        "kernel-check",
        MESH_8 + "experiment: {kind: kernel-check, eps_list: [true]}",
    ),
    (
        "problem.mesh.dimension: expected an integer, got True",
        "solve-forward",
        MINIMAL_FORWARD.replace("dimension: 1", "dimension: true"),
    ),
    ("problem.mesh.n: expected an integer, got True", "solve-forward", MINIMAL_FORWARD.replace("n: 32", "n: true")),
    ("experiment.free_e: expected true or false", "identify", IDENTIFY_TWIN + '  free_e: "false"\n'),
    # every mapping rejects a field it does not know
    (
        "experiment.eps_shedule: unknown field",
        "continuation",
        MESH_8 + "experiment: {kind: continuation, eps_shedule: [1.0e-1, 1.0e-2]}",
    ),
    ("experiment.eps: unknown field", "kernel-check", MESH_8 + "experiment: {kind: kernel-check, eps: 0.1}"),
    ("seed: unknown field", "solve-forward", MINIMAL_FORWARD + "seed: 3\n"),
    ("problem.shape: unknown field", "solve-forward", MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  shape: bar")),
    ("problem.mesh.size: unknown field", "solve-forward", MINIMAL_FORWARD.replace("n: 32}", "n: 32, size: 2}")),
    (
        "problem.mesh.interval: unknown field",
        "solve-forward",
        MINIMAL_FORWARD.replace("{dimension: 1, n: 32}", "{dimension: 2, n: 4, interval: [0.0, 1.0]}"),
    ),
    (
        "problem.friction.valu: unknown field",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  friction: {valu: 1.0}"),
    ),
    ("solver.newton_max_iter: unknown field", "identify", IDENTIFY_TWIN + "solver: {newton_max_iter: 50}\n"),
    # ranges the types do not imply
    ("experiment.t_points: must be >= 1", "kernel-check", MESH_8 + "experiment: {kind: kernel-check, t_points: 0}"),
    (
        "experiment.n_directions: must be >= 1",
        "check-gradient",
        MESH_8 + "experiment: {kind: gradient-check, n_directions: 0, tolerance: 1.0e-30}",
    ),
    ("experiment.max_iters: must be >= 0", "identify", IDENTIFY_TWIN + "  max_iters: -1\n"),
    # a negative stop_tol would never stop a run "stationary"
    ("experiment.stop_tol: must be >= 0", "identify", IDENTIFY_TWIN.replace("stop_tol: 1.0e-9", "stop_tol: -1.0")),
    ("experiment.alpha: must be >= 0", "identify", IDENTIFY_TWIN.replace("alpha: 1.0e-8", "alpha: -1.0")),
    ("experiment.beta: must be >= 0", "check-gradient", MESH_8 + "experiment: {kind: gradient-check, beta: -1.0}"),
    ("experiment.true_friction: must lie in", "identify", IDENTIFY_TWIN.replace("true_friction: 0.25", "true_friction: 6.0")),
    ("experiment.initial_ellipticity: must lie in", "identify", IDENTIFY_TWIN + "  initial_ellipticity: 20.0\n"),
    ("experiment.eps: must be >= 0", "solve-forward", MINIMAL_FORWARD.replace("eps: 0.0", "eps: -1.0e-3")),
    ("experiment.eps: must be positive", "check-gradient", MESH_8 + "experiment: {kind: gradient-check, eps: 0.0}"),
    ("solver.oracle_tol: must be positive", "solve-forward", MINIMAL_FORWARD + "solver: {oracle_tol: 0.0}\n"),
    # YAML's .inf and .nan are floats: a non-finite tolerance passed every
    # test, and an infinite eps was run and written to the manifest
    (
        "solver.newton_tol: expected a finite real number, got inf",
        "solve-forward",
        MESH_8 + "experiment: {kind: forward, eps: 1.0e-3}\nsolver: {newton_tol: .inf}\n",
    ),
    (
        "experiment.eps: expected a finite real number, got inf",
        "solve-forward",
        MESH_8 + "experiment: {kind: forward, eps: .inf}",
    ),
    (
        "problem.source: expected a finite real number, got nan",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  source: .nan"),
    ),
    (
        "experiment.eps_list entry: expected a finite real number, got inf",
        "rate-study",
        MESH_8 + "experiment: {kind: rate-study, eps_list: [1.0e-2, .inf]}",
    ),
    # the remaining checks, one case each
    ("top level must be a mapping", "solve-forward", "- problem\n- experiment\n"),
    ("problem.mesh: expected a mapping", "solve-forward", MINIMAL_FORWARD.replace("{dimension: 1, n: 32}", "[1, 32]")),
    ("problem.form: unknown form", "solve-forward", MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  form: laplace")),
    (
        "problem.ellipticity: ellipticity bounds",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32}\n  ellipticity: {lower: 0.0}"),
    ),
    (
        "problem.mesh.interval: expected [a, b]",
        "solve-forward",
        MINIMAL_FORWARD.replace("n: 32}", "n: 32, interval: [0.0]}"),
    ),
    ("experiment.kernels: unknown kernel", "rate-study", MESH_8 + "experiment: {kind: rate-study, kernels: [gauss]}"),
    (
        "experiment.eps_list: expected a nonempty list",
        "rate-study",
        MESH_8 + "experiment: {kind: rate-study, eps_list: []}",
    ),
    # an empty kernel list would check no kernel and pass
    (
        "experiment.kernels: expected a nonempty list of kernel names",
        "kernel-check",
        MESH_8 + "experiment: {kind: kernel-check, kernels: []}",
    ),
    ("experiment.kernels: expected a nonempty list", "rate-study", MESH_8 + "experiment: {kind: rate-study, kernels: []}"),
    # the central difference divides by the step
    (
        "experiment.fd_step: must be positive",
        "check-gradient",
        MESH_8 + "experiment: {kind: gradient-check, fd_step: 0.0}",
    ),
    ("experiment.fd_step", "check-gradient", MESH_8 + "experiment: {kind: gradient-check, fd_step: -1.0e-5}"),
    # a 1 x 1 unit square has no free node and no friction node
    (
        "problem.mesh.n: must be an integer >= 2 at dimension 2",
        "solve-forward",
        MINIMAL_FORWARD.replace("{dimension: 1, n: 32}", "{dimension: 2, n: 1}"),
    ),
    (
        "problem.mesh.n: must be an integer >= 2",
        "kernel-check",
        "problem: {mesh: {dimension: 2, n: 1}}\nexperiment: {kind: kernel-check}",
    ),
    # every central-difference point must stay in the box: f = 0 sits on its lower bound
    (
        "experiment.fd_step: a central-difference point at step 1e-05 leaves problem.friction's box",
        "check-gradient",
        "problem:\n  mesh: {dimension: 1, n: 8}\n  friction: {value: 0.0}\nexperiment: {kind: gradient-check}",
    ),
    (
        "experiment.fd_step: a central-difference point at step 10.0 leaves problem.ellipticity's box",
        "check-gradient",
        MESH_8 + "experiment: {kind: gradient-check, fd_step: 10.0}",
    ),
]


@pytest.mark.parametrize("field,command,text", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, field, command, text):
    cfg_path = write(tmp_path, text)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys):
    cfg_path = write(tmp_path, MESH_8 + "experiment: {kind: gradient-check}")
    with pytest.raises(SystemExit) as exc:
        main(["check-gradient", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_every_kind_has_one_runner_and_one_subcommand():
    assert set(EXPERIMENT_KINDS) == set(_RUNNERS) == set(_COMMAND_KINDS.values())
    assert len(_COMMAND_KINDS) == len(EXPERIMENT_KINDS)


def test_cli_solver_failure_exits_1(tmp_path, capsys):
    # Newton's gradient on D cannot reach a tolerance below round-off; in 1D
    # (|D| = 1) it can round to exactly 0, and the state is then accepted at
    # its round-off, so the mesh is 2D
    text = "problem: {mesh: {dimension: 2, n: 4}}\nexperiment: {kind: forward, eps: 1.0e-3}\nsolver: {newton_tol: 1.0e-30}\n"
    cfg_path = write(tmp_path, text)
    assert main(["solve-forward", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "solver failure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_solve_forward_accepts_a_1d_solution_at_its_round_off(tmp_path, capsys):
    # at n = 2048 the full-space residual's round-off is above 1e-12; the
    # run used to exit 1 with "Newton residual 2.719e-12 above tol 1.0e-12"
    text = "problem:\n  mesh: {dimension: 1, n: 2048}\nkernel: sqrt\nexperiment: {kind: forward, eps: 1.0e-3}\n"
    cfg_path = write(tmp_path, text)
    assert main(["solve-forward", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["results"]["residual"] > 1e-12


@pytest.mark.parametrize(
    "friction,newton_tol,status",
    [
        (0.25, 1.0e-30, "failed: "),  # each smoothed solve fails; its row is kept
        (0.0, 1.0e-12, "ok"),  # f = 0: u_eps = u, so no error is above 1e-14 to fit
    ],
)
def test_cli_rate_study_skips_the_slope_without_usable_errors(tmp_path, friction, newton_tol, status):
    text = (
        f"problem:\n  mesh: {{dimension: 2, n: 4}}\n  friction: {{value: {friction}}}\n"
        f"solver: {{newton_tol: {newton_tol}}}\n"
        "experiment: {kind: rate-study, kernels: [sigmoid], eps_list: [1.0e-1, 1.0e-2]}\n"
    )
    cfg_path = write(tmp_path, text)
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--strict"]) == 0
    _, rows = read_csv(tmp_path / "o" / "rate_study.csv")
    assert len(rows) == 2 and all(r[3].startswith(status) for r in rows)
    _, slopes = read_csv(tmp_path / "o" / "slopes.csv")
    assert slopes == [["sigmoid", "skipped"]]


def test_cli_rate_study_runs_newton_once_per_failed_row(tmp_path, monkeypatch):
    # Newton starts from the oracle's x on D; the oracle's state holds the
    # same x, so a second start from it would repeat the failing solve
    calls = []
    newton = forward._newton
    monkeypatch.setattr(forward, "_newton", lambda *args: calls.append(1) or newton(*args))
    text = (
        "problem: {mesh: {dimension: 2, n: 4}}\nsolver: {newton_tol: 1.0e-30}\n"
        "experiment: {kind: rate-study, kernels: [sigmoid], eps_list: [1.0e-1, 1.0e-2]}\n"
    )
    cfg_path = write(tmp_path, text)
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "rate_study.csv")
    assert [r[3].startswith("failed: ") for r in rows] == [True, True]
    assert len(calls) == 2


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
    assert len(manifest["results"]["forward_solves"]) == 3
    assert all(isinstance(n, int) and n >= 1 for n in manifest["results"]["forward_solves"])


def test_cli_continuation_strict_fails_on_a_level_that_is_not_stationary(tmp_path, capsys):
    text = (
        "problem:\n  mesh: {dimension: 1, n: 16}\n"
        "kernel: sigmoid\n"
        "experiment:\n  kind: continuation\n  max_iters: 1\n"
    )
    cfg_path = write(tmp_path, text)
    out_dir = str(tmp_path / "o")
    assert main(["continuation", "--config", str(cfg_path), "--out", out_dir]) == 0
    assert main(["continuation", "--config", str(cfg_path), "--out", out_dir, "--strict"]) == 1
    assert "FAILED" in capsys.readouterr().err
    results = json.loads((tmp_path / "o" / "manifest.json").read_text())["results"]
    assert results["successive_decreasing"]  # the distances alone would pass
    assert "max_iters" in results["stop_reasons"]


def test_the_manifest_names_the_optimizer(tmp_path):
    cfg = parse_config(write(tmp_path, IDENTIFY_TWIN))
    results, manifest = run_experiment(cfg, tmp_path / "i", seed=0)
    assert json.loads(manifest.read_text())["results"]["method"] == results["method"] == "trf"
    text = IDENTIFY_TWIN.replace("kind: identify\n  eps: 1.0e-4", "kind: continuation\n  eps_schedule: [1.0e-2, 1.0e-3]")
    results, manifest = run_experiment(parse_config(write(tmp_path, text)), tmp_path / "c", seed=0)
    assert json.loads(manifest.read_text())["results"]["methods"] == results["methods"] == ["trf", "trf"]


def test_cli_seed_changes_noisy_results(tmp_path):
    text = IDENTIFY_TWIN + "  noise_level: 0.02\n"
    cfg_path = write(tmp_path, text)
    main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "1"])
    main(["identify", "--config", str(cfg_path), "--out", str(tmp_path / "s2"), "--seed", "2"])
    p1 = (tmp_path / "s1" / "parameters.csv").read_bytes()
    p2 = (tmp_path / "s2" / "parameters.csv").read_bytes()
    assert p1 != p2
