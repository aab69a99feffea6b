"""Command-line front end: configs, result files, subcommands, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dplap.cli as cli
import dplap.core
from dplap.cli import (EXIT_ERROR, EXIT_NO_RESULT, EXIT_OK, EXIT_SELFTEST_FAIL,
                       RESULT_HEADER_KEYS, ConfigError, expand_alphas,
                       load_config, main, read_result, write_result)
from dplap.core import GridFunction, ProblemSpec
from dplap.nonlinearities import bounded_rational
from dplap.solver import SweepRow
from dplap.spectrum import EigenConvergenceError


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def esempio0_cfg(tmp_path, **overrides):
    cfg = {"T": 5, "p": 2.0, "alpha": 1.0,
           "nonlinearity": {"kind": "bounded_rational"}, "gamma": 0.5}
    cfg.update(overrides)
    return write_cfg(tmp_path, cfg)


# ---------------------------------------------------------------- configs

def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.json")])
    assert rc == EXIT_ERROR
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["solve", str(path)])
    assert rc == EXIT_ERROR
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_config_exits_1(tmp_path, capsys):
    rc = main(["solve", write_cfg(tmp_path, [1, 2, 3])])
    assert rc == EXIT_ERROR
    assert "top level must be an object" in capsys.readouterr().err


def test_missing_T_message(tmp_path, capsys):
    rc = main(["solve", write_cfg(tmp_path, {"p": 2.0})])
    assert rc == EXIT_ERROR
    assert "config field 'T': missing" in capsys.readouterr().err


def test_bad_p_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 5, "p": 0.5,
                               "nonlinearity": {"kind": "zero"}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "config field 'p': p must exceed 1" in capsys.readouterr().err


def test_non_integer_T_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 5.5, "p": 2.0,
                               "nonlinearity": {"kind": "zero"}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "must be an integer >= 2" in capsys.readouterr().err


def test_missing_nonlinearity(tmp_path, capsys):
    rc = main(["solve", write_cfg(tmp_path, {"T": 5, "p": 2.0, "alpha": 1.0})])
    assert rc == EXIT_ERROR
    assert "config field 'nonlinearity': missing" in capsys.readouterr().err


def test_unknown_kind_lists_expected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 5, "p": 2.0, "alpha": 1.0,
                               "nonlinearity": {"kind": "cubic"}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "unknown kind 'cubic'" in err
    for kind in ("zero", "constant", "linear", "power", "bounded_rational",
                 "custom_table"):
        assert kind in err


def test_custom_table_requires_samples(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "alpha": 1.0,
                               "nonlinearity": {"kind": "custom_table", "t": [0, 1]}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "custom_table needs 't' and 'f'" in capsys.readouterr().err


def test_per_k_scale_length(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "alpha": 1.0,
                               "nonlinearity": {"kind": "constant", "params": [1.0],
                                                "per_k_scale": [1.0, 2.0]}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "list of length T=3" in capsys.readouterr().err


def test_gamma_list_wrong_length(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path, gamma=[0.5, 0.5])])
    assert rc == EXIT_ERROR
    assert "config field 'gamma'" in capsys.readouterr().err


def test_alpha_missing_for_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 5, "p": 2.0,
                               "nonlinearity": {"kind": "bounded_rational"}})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "pass --alpha" in capsys.readouterr().err


def test_solve_rejects_sweep_alpha(tmp_path, capsys):
    cfg = esempio0_cfg(tmp_path, alpha={"lo": 0.1, "hi": 1.0, "n": 3})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    assert "config declares a sweep" in capsys.readouterr().err


def test_expand_alphas_geomspace():
    got = expand_alphas({"lo": 0.05, "hi": 5.0, "n": 9})
    assert np.allclose(got, np.geomspace(0.05, 5.0, 9), rtol=0, atol=0)


def test_expand_alphas_list_and_validation():
    assert expand_alphas([0.1, 1.0]) == [0.1, 1.0]
    with pytest.raises(ConfigError):
        expand_alphas([])
    with pytest.raises(ConfigError):
        expand_alphas([0.1, True])
    with pytest.raises(ConfigError):
        expand_alphas({"lo": 0.1, "hi": 1.0})  # n missing
    with pytest.raises(ConfigError):
        expand_alphas({"lo": 1.0, "hi": 0.1, "n": 3})
    with pytest.raises(ConfigError):
        expand_alphas(0.5)


# ---------------------------------------------------------------- result files

def test_result_round_trip_is_exact(tmp_path):
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=bounded_rational())
    u = GridFunction.from_interior([math.pi, -math.e, math.sqrt(2)])
    path = str(tmp_path / "res.txt")
    write_result(path, prob, alpha=1.0 / 3.0, seed=7,
                 residual=1.2345678901234567e-11, energy_value=-0.1 / 3.0, u=u)
    headers, back = read_result(path)
    assert tuple(headers) == RESULT_HEADER_KEYS
    assert headers["T"] == 3.0 and headers["p"] == 2.0
    assert headers["alpha"] == 1.0 / 3.0  # 17 digits round-trip doubles
    assert headers["seed"] == 7.0
    assert headers["residual"] == 1.2345678901234567e-11
    assert headers["energy"] == -0.1 / 3.0
    assert np.array_equal(back.values, u.values)


def test_read_result_rejects_index_gap(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("# T = 2\n0 0\n2 0\n")
    with pytest.raises(ValueError, match="not contiguous"):
        read_result(str(path))


# ---------------------------------------------------------------- solve

def test_solve_writes_result_and_exits_0(tmp_path, capsys):
    out = str(tmp_path / "result.txt")
    rc = main(["solve", esempio0_cfg(tmp_path), "--out", out])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"wrote {out}" in stdout
    assert "positivity positive" in stdout
    headers, u = read_result(out)
    assert headers["T"] == 5.0
    assert headers["p"] == 2.0
    assert headers["alpha"] == 1.0
    assert headers["seed"] == 0.0
    assert headers["residual"] <= 1e-10
    assert abs(headers["energy"] - (-1.3080511229489105)) < 1e-9
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.min(u.interior) > 0.0


def test_solve_alpha_flag_overrides_config(tmp_path):
    out = str(tmp_path / "result.txt")
    rc = main(["solve", esempio0_cfg(tmp_path, alpha=0.1),
               "--alpha", "1.0", "--out", out])
    assert rc == EXIT_OK
    headers, _ = read_result(out)
    assert headers["alpha"] == 1.0
    assert headers["energy"] < -1.0  # the nontrivial alpha=1 branch


def test_solve_without_solutions_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "multistart_solve", lambda *a, **k: [])
    rc = main(["solve", esempio0_cfg(tmp_path), "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_NO_RESULT
    assert "no converged solution" in capsys.readouterr().out


# ---------------------------------------------------------------- eigen

def parse_headers(stdout):
    headers = {}
    for line in stdout.splitlines():
        if line.startswith("#") and " = " in line:
            key, _, val = line.lstrip("# ").partition(" = ")
            headers[key.strip()] = val.strip()
    return headers


def test_eigen_p2_output(capsys):
    rc = main(["eigen", "--p", "2", "--T", "5"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    headers = parse_headers(out)
    assert abs(float(headers["lambda_1"]) - (2.0 - math.sqrt(3.0))) < 1e-12
    assert float(headers["residual"]) <= 1e-9
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(rows) == 7  # nodes 0..T+1
    assert rows[0].split() == ["0", "0"]
    closed_line = next(line for line in out.splitlines()
                       if "lambda_k closed form" in line)
    assert len(closed_line.split(":")[1].split()) == 5
    assert "max relative deviation" in out


def test_eigen_p3_skips_closed_form_block(capsys):
    rc = main(["eigen", "--p", "3", "--T", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert abs(float(parse_headers(out)["lambda_1"]) - 0.2199515671420565) < 1e-9
    assert "closed form" not in out


def test_eigen_invalid_flags_exit_1(capsys):
    assert main(["eigen", "--p", "1.0", "--T", "5"]) == EXIT_ERROR
    assert "p must exceed 1" in capsys.readouterr().err
    assert main(["eigen", "--p", "2.0", "--T", "1"]) == EXIT_ERROR
    assert "T must be an integer >= 2" in capsys.readouterr().err


def test_eigen_convergence_failure_exit_1(capsys, monkeypatch):
    def boom(p, T, opts=None):
        raise EigenConvergenceError("quotient descent stalled", None)
    monkeypatch.setattr(cli, "first_eigenpair", boom)
    rc = main(["eigen", "--p", "1.05", "--T", "9"])
    assert rc == EXIT_ERROR
    assert "quotient descent stalled" in capsys.readouterr().err


# ---------------------------------------------------------------- check

def test_check_eps_admissible_exits_0(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path), "--eps", "100"])
    assert rc == EXIT_OK
    headers = parse_headers(capsys.readouterr().out)
    assert headers["verdict"] == "true"
    assert float(headers["eps"]) == 100.0
    assert float(headers["margin"]) > 0.0
    assert float(headers["sigma"]) > 0.0


def test_check_eps_inadmissible_exits_2(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path), "--eps", "1e-8"])
    assert rc == EXIT_NO_RESULT
    assert parse_headers(capsys.readouterr().out)["verdict"] == "false"


def test_check_eps_scan_finds_certificate(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path), "--eps-scan"])
    assert rc == EXIT_OK
    headers = parse_headers(capsys.readouterr().out)
    assert headers["verdict"] == "true"


def test_check_eps_scan_linear_reports_none(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 5, "p": 2.0,
                               "nonlinearity": {"kind": "linear", "params": [1.0]}})
    rc = main(["check", cfg, "--eps-scan"])
    assert rc == EXIT_NO_RESULT
    assert "no admissible eps" in capsys.readouterr().out


def test_check_threshold_block(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    thr = float(parse_headers(out)["alpha_threshold"])
    assert abs(thr - (2.0 - math.sqrt(3.0))) < 1e-12
    assert "guarantees a positive solution" in out


def test_check_cd_validation_exit_1(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path), "--cd", "2.0", "1.0"])
    assert rc == EXIT_ERROR
    assert "0 < c < d" in capsys.readouterr().err


def test_check_cd_false_verdict_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 2, "p": 2.0,
                               "nonlinearity": {"kind": "zero"}})
    rc = main(["check", cfg, "--cd", "1.0", "2.0"])
    assert rc == EXIT_NO_RESULT
    headers = parse_headers(capsys.readouterr().out)
    assert headers["verdict"] == "false"
    assert float(headers["c"]) == 1.0 and float(headers["d"]) == 2.0


def test_check_cd_true_verdict_custom_table(tmp_path, capsys):
    # cubic growth clipped at |t| = 10; the window (1, 10) separates scales
    t = np.linspace(-60.0, 60.0, 4801)
    f = np.clip(t ** 3, -1000.0, 1000.0)
    cfg = write_cfg(tmp_path, {"T": 2, "p": 2.0,
                               "nonlinearity": {"kind": "custom_table",
                                                "t": t.tolist(), "f": f.tolist(),
                                                "is_nonnegative": True}})
    rc = main(["check", cfg, "--cd", "1.0", "10.0"])
    assert rc == EXIT_OK
    headers = parse_headers(capsys.readouterr().out)
    assert headers["verdict"] == "true"
    assert float(headers["alpha_lo"]) < float(headers["alpha_hi"])


# ---------------------------------------------------------------- sweep

def test_sweep_csv_format_and_exit_0(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    cfg = esempio0_cfg(tmp_path, alpha=[0.1, 1.0])
    rc = main(["sweep", cfg, "--out", out])
    assert rc == EXIT_OK
    assert f"wrote {out} (2 rows)" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == "alpha,n_solutions,min_energy,sup_norm,positivity,nontriviality_zeta"
    assert len(lines) == 3
    small = lines[1].split(",")
    assert float(small[0]) == 0.1
    assert small[1] == "1"  # only the zero solution below the threshold
    assert float(small[2]) == 0.0
    assert small[4] == "zero"
    assert small[5] == ""  # no nontriviality scale below the threshold
    big = lines[2].split(",")
    assert float(big[0]) == 1.0
    assert int(big[1]) >= 3
    assert abs(float(big[2]) - (-1.3080511229489105)) < 1e-9
    assert big[4] == "positive"
    assert float(big[5]) > 0.0  # certified scale making the energy negative


def test_sweep_scalar_alpha_exit_1(tmp_path, capsys):
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha=2.0),
               "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_ERROR
    assert "sweep requires alpha" in capsys.readouterr().err


def test_sweep_row_errors_warn_and_exit_2(tmp_path, capsys, monkeypatch):
    rows = [SweepRow(alpha=1.0, n_solutions=0, min_energy=None, sup_norm=None,
                     positivity=None, nontriviality_zeta=None,
                     error="synthetic failure")]
    monkeypatch.setattr(cli, "sweep_alpha", lambda *a, **k: rows)
    out = str(tmp_path / "s.csv")
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha=[1.0]), "--out", out])
    assert rc == EXIT_NO_RESULT
    assert "synthetic failure" in capsys.readouterr().err
    assert open(out).read().splitlines()[1] == "1,0,,,,"


# ---------------------------------------------------------------- selftest

def test_selftest_passes(capsys):
    rc = main(["selftest"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for name in ("constant-identity", "remark-inequality",
                 "p2-spectrum-closed-form", "gradient-vs-fd"):
        assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_selftest_fault_injection(capsys, monkeypatch):
    monkeypatch.setattr(dplap.core, "kappa", lambda p, T: 1.0)
    rc = main(["selftest"])
    assert rc == EXIT_SELFTEST_FAIL
    out = capsys.readouterr().out
    assert "FAIL constant-identity" in out
    # checks not routed through the patched helper still pass
    for name in ("remark-inequality", "p2-spectrum-closed-form", "gradient-vs-fd"):
        assert f"PASS {name}" in out


# ---------------------------------------------------------------- environment

def test_invalid_threads_env_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DPLAP_THREADS", "abc")
    rc = main(["solve", esempio0_cfg(tmp_path), "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_ERROR
    assert "DPLAP_THREADS must be an integer" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    # every CLI call is a fresh process; scipy is imported only where used
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dplap.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

