"""Command-line front end: configs, result files, subcommands, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dplap.cli as cli
import dplap.core
from dplap.cli import (EXIT_ERROR, EXIT_NO_RESULT, EXIT_OK, EXIT_SELFTEST_FAIL,
                       RESULT_HEADER_KEYS, ConfigError, expand_alphas,
                       load_config, main, read_result, write_result)
import dplap.solver
import dplap.spectrum
from dplap.core import GridFunction, ProblemSpec
from dplap.energy import strong_residual
from dplap.existence import h
from dplap.nonlinearities import bounded_rational, from_table
from dplap.solver import SweepRow
from dplap.spectrum import EigenConvergenceError, eigenvalues_p2


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


@pytest.mark.parametrize("nl", [
    {"kind": "power", "params": [-1]},
    {"kind": "power"},
    {"kind": "power", "params": []},
])
def test_power_params_are_named(tmp_path, capsys, nl):
    cfg = write_cfg(tmp_path, {"T": 4, "p": 3.0, "alpha": 1.0, "nonlinearity": nl})
    rc = main(["solve", cfg, "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    assert "config field 'nonlinearity.params'" in capsys.readouterr().err


@pytest.mark.parametrize("nl", [
    {"kind": "zero", "params": [5]},
    {"kind": "constant", "params": [1, 2, 3]},
    {"kind": "linear", "params": [1.0, 2.0]},
    {"kind": "power", "params": [1.5, 2, 3]},
    {"kind": "bounded_rational", "params": [1]},
], ids=["zero", "constant", "linear", "power", "bounded_rational"])
def test_extra_params_are_rejected_by_name(tmp_path, capsys, nl):
    cfg = write_cfg(tmp_path, {"T": 4, "p": 2.0, "alpha": 1.0, "nonlinearity": nl})
    rc = main(["solve", cfg, "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "config field 'nonlinearity.params'" in err
    assert f"got {len(nl['params'])}" in err


def test_power_per_k_scale_of_wrong_length_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"T": 4, "p": 3.0, "alpha": 1.0,
                               "nonlinearity": {"kind": "power", "params": [1.5, 2],
                                                "per_k_scale": [1, 2, 3]}})
    rc = main(["solve", cfg, "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    assert "config field 'nonlinearity.per_k_scale'" in capsys.readouterr().err


def test_scaled_power_solves_and_re_reads(tmp_path):
    cfg_path = write_cfg(tmp_path, {"T": 4, "p": 3.0, "alpha": 1.0,
                                    "nonlinearity": {"kind": "power", "params": [1.5, 2],
                                                     "per_k_scale": [1, 2, 3, 4]}})
    out = str(tmp_path / "result.txt")
    assert main(["solve", cfg_path, "--out", out]) == EXIT_OK
    headers, u = read_result(out)
    prob, alpha, _ = cli.build_problem(load_config(cfg_path))
    assert headers["alpha"] == alpha == 1.0
    assert strong_residual(u, prob, alpha) <= 1e-10


TABLE = {"kind": "custom_table", "t": [-2.0, 0.0, 2.0], "f": [-1.0, 0.0, 1.0]}


@pytest.mark.parametrize("field, overrides", [
    ("nonlinearity.per_k_scale",
     {"nonlinearity": {"kind": "bounded_rational", "per_k_scale": [True, 1, 1]}}),
    ("nonlinearity.per_k_scale",
     {"nonlinearity": {"kind": "bounded_rational", "per_k_scale": ["x", 1, 1]}}),
    ("nonlinearity.per_k_scale",
     {"nonlinearity": {"kind": "bounded_rational", "per_k_scale": [1, -1, math.nan]}}),
    ("nonlinearity.is_nonnegative",
     {"nonlinearity": {**TABLE, "is_nonnegative": "false"}}),
    ("nonlinearity.f", {"nonlinearity": {**TABLE, "f": [True, False, True]}}),
    ("T", {"T": math.nan}),
    ("nonlinearity", {"nonlinearity": 5}),
    ("nonlinearity", {"nonlinearity": ["bounded_rational"]}),
    ("nonlinearity.params", {"nonlinearity": {"kind": "constant", "params": 1.0}}),
    ("nonlinearity.params", {"nonlinearity": {"kind": "constant", "params": ["x"]}}),
    ("nonlinearity", {"nonlinearity": {**TABLE, "t": [0.0, 0.0, 2.0]}}),  # from_table rejects
    ("gamma", {"gamma": "x"}),
    ("gamma", {"gamma": [0.5, True, 0.5]}),
    # two rows of f at T = 3: ProblemSpec rejects the nonlinearity
    ("nonlinearity", {"nonlinearity": {**TABLE, "f": [[-1.0, 0.0, 1.0]] * 2}}),
])
def test_bad_field_values_are_named(tmp_path, capsys, field, overrides):
    # booleans, strings and non-finite numbers are not silently coerced
    cfg = {"T": 3, "p": 2.0, "nonlinearity": {"kind": "bounded_rational"}}
    cfg.update(overrides)
    rc = main(["check", write_cfg(tmp_path, cfg), "--eps", "0.5"])
    assert rc == EXIT_ERROR
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, overrides", [
    ("solve", "alpha", {"alpha": -1}),
    ("sweep", "alpha", {"alpha": [1.0, 0.5]}),
    ("sweep", "alpha", {"alpha": [1.0, -0.5]}),
    ("sweep", "alpha", {"alpha": []}),
    ("check", "gamma", {"gamma": -1}),
    ("check", "gamma", {"gamma": 0}),
    ("check", "gamma", {"gamma": [0.5, 0.5, 0.5, 0.5, -0.5]}),
], ids=["solve-negative", "sweep-decreasing", "sweep-negative", "sweep-empty",
        "check-gamma-negative", "check-gamma-zero", "check-gamma-entry"])
def test_library_rules_name_their_config_field(tmp_path, capsys, command, field,
                                               overrides):
    # the value passes the CLI's type checks and fails the library's own rule
    args = [command, esempio0_cfg(tmp_path, **overrides)]
    if command != "check":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == EXIT_ERROR
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("fs", [[-1.0, -1.0, -1.0], [-10.0, 0.0, 0.1]],
                         ids=["negative", "odd-part-negative"])
def test_a_true_is_nonnegative_key_is_checked(tmp_path, capsys, fs):
    nl = {**TABLE, "f": fs, "is_nonnegative": True}
    cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "nonlinearity": nl})
    assert main(["check", cfg, "--eps", "0.5"]) == EXIT_ERROR
    assert "config field 'nonlinearity.is_nonnegative'" in capsys.readouterr().err
    for claim in ({"is_nonnegative": False}, {}):  # claims nothing
        nl = {**TABLE, "f": fs, **claim}
        cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "nonlinearity": nl})
        assert main(["check", cfg, "--eps", "0.5"]) == EXIT_NO_RESULT


def test_an_undeclared_nonnegative_table_gets_the_exact_chi(tmp_path, capsys):
    # TABLE is odd and >= 0 for t >= 0: with or without the key, chi = h(eps)
    outs = []
    for claim in ({"is_nonnegative": True}, {"is_nonnegative": False}, {}):
        cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "nonlinearity": {**TABLE, **claim}})
        assert main(["check", cfg, "--eps", "0.5"]) == EXIT_NO_RESULT  # chi 0.75 > 0.5
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=from_table(TABLE["t"], TABLE["f"]))
    assert float(parse_headers(outs[0])["chi_eps"]) == h(0.5, prob)


@pytest.mark.parametrize("kind", [5, [1], None], ids=["int", "list", "missing"])
def test_non_string_kind_is_an_unknown_kind(tmp_path, capsys, kind):
    nl = {"kind": kind} if kind is not None else {}
    cfg = write_cfg(tmp_path, {"T": 3, "p": 2.0, "alpha": 1.0, "nonlinearity": nl})
    rc = main(["solve", cfg])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "config field 'nonlinearity.kind'" in err
    assert f"unknown kind {kind!r}" in err


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


@pytest.mark.parametrize("alpha", [math.inf, "1.0", True], ids=["inf", "string", "bool"])
def test_solve_rejects_non_finite_config_alpha(tmp_path, capsys, alpha):
    rc = main(["solve", esempio0_cfg(tmp_path, alpha=alpha)])
    assert rc == EXIT_ERROR
    assert "config field 'alpha': must be a finite number" in capsys.readouterr().err


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


@pytest.mark.parametrize("n", [0, -2, 1.5, True, "3"],
                         ids=["zero", "negative", "fraction", "bool", "string"])
def test_expand_alphas_names_a_bad_count(n):
    with pytest.raises(ConfigError) as exc:
        expand_alphas({"lo": 0.1, "hi": 1.0, "n": n})
    assert exc.value.field == "alpha.n"


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


def test_solve_rejects_negative_seed(tmp_path, capsys):
    rc = main(["solve", esempio0_cfg(tmp_path), "--seed", "-1",
               "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "result.txt").exists()


def test_solve_rejects_infinite_alpha(tmp_path, capsys):
    rc = main(["solve", esempio0_cfg(tmp_path, T=3), "--alpha", "inf",
               "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    assert "alpha must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "result.txt").exists()


def test_solve_and_eigen_reject_infinite_tol(tmp_path, capsys):
    rc = main(["solve", esempio0_cfg(tmp_path, T=3), "--tol", "inf",
               "--out", str(tmp_path / "result.txt")])
    assert rc == EXIT_ERROR
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "result.txt").exists()
    assert main(["eigen", "--p", "2", "--T", "5", "--tol", "inf"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "tol must be positive and finite" in captured.err
    assert "lambda_1" not in captured.out


def test_usage_errors_exit_1(tmp_path, capsys):
    for argv in (["solve", esempio0_cfg(tmp_path), "--starts", "x"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == EXIT_OK


def test_solve_without_solutions_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dplap.solver, "multistart_solve", lambda *a, **k: [])
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


def test_p2_spectrum_deviation_builds_no_dense_matrix(monkeypatch):
    # LAPACK dsterf reads the two diagonals: matrix_A's T x T arrays are
    # never built, and the deviation stays within the selftest's tolerance
    def dense(T):
        raise AssertionError("matrix_A called")
    monkeypatch.setattr(dplap.spectrum, "matrix_A", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    for T in range(2, 61):
        closed, deviation = cli._p2_spectrum_deviation(T)
        assert np.array_equal(closed, eigenvalues_p2(T))
        assert deviation <= 1e-10


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


def test_infinite_p_is_rejected(capsys):
    # at p = inf kappa and c_const are nan and a solve "converges" to
    # nonsense: every entry point that takes p rejects it, and so does eigen
    msg = "p must exceed 1 and be finite"
    calls = [lambda: ProblemSpec(T=5, p=math.inf, nonlinearity=bounded_rational()),
             lambda: dplap.kappa(math.inf, 5),
             lambda: dplap.c_const(np.inf, 5),
             lambda: dplap.first_eigenpair(math.inf, 5)]
    for call in calls:
        with pytest.raises(ValueError, match=msg):
            call()
    assert main(["eigen", "--p", "inf", "--T", "5"]) == EXIT_ERROR
    assert msg in capsys.readouterr().err


def test_eigen_convergence_failure_exit_1(capsys, monkeypatch):
    def boom(p, T, tol=None):
        raise EigenConvergenceError("quotient descent stalled", None)
    monkeypatch.setattr(dplap.spectrum, "first_eigenpair", boom)
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


def test_check_rejects_infinite_eps(tmp_path, capsys):
    rc = main(["check", esempio0_cfg(tmp_path, T=3), "--eps", "inf"])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert "eps must be positive and finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("flags, message", [
    (["--eps", "1e-170"], "eps ** p underflows to 0"),
    (["--eps", "1e200"], "eps ** p overflows"),
    (["--cd", "1e-320", "1"], "c ** p underflows to 0"),
    (["--cd", "1", "inf"], "0 < c < d"),
    (["--eps-scan", "--eps-lo", "1e-320"], "eps_range lo ** p underflows to 0"),
    (["--eps-scan", "--eps-hi", "inf"], "eps_range must satisfy 0 < lo < hi < inf"),
], ids=["eps-underflow", "eps-overflow", "c-underflow", "d-infinite",
        "eps-lo-underflow", "eps-hi-infinite"])
def test_check_rejects_radii_out_of_range(tmp_path, capsys, flags, message):
    # rejected before any F is evaluated: exit 1, no numpy warning, no report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["check", esempio0_cfg(tmp_path, T=3)] + flags)
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert message in captured.err
    assert "verdict" not in captured.out
    assert caught == []


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


def test_check_threshold_unavailable_is_a_comment(tmp_path, capsys):
    # a declared gamma on a nonlinearity not flagged nonnegative
    nl = {"kind": "constant", "params": [-1.0]}
    rc = main(["check", esempio0_cfg(tmp_path, nonlinearity=nl)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert ("# alpha_threshold unavailable: alpha_threshold requires a nonlinearity "
            "flagged nonnegative") in out
    assert "alpha_threshold =" not in out


def test_check_threshold_eigen_failure_is_a_comment(tmp_path, capsys):
    # first_eigenpair raises EigenConvergenceError at p = 1.1, T = 50: the
    # threshold is unavailable, and the certificate's verdict sets the exit
    cfg = esempio0_cfg(tmp_path, T=50, p=1.1)
    rc = main(["check", cfg, "--eps", "0.5"])
    assert rc == EXIT_NO_RESULT
    out = capsys.readouterr().out
    assert parse_headers(out)["verdict"] == "false"
    assert "# alpha_threshold unavailable: first eigenpair (p=1.1, T=50)" in out
    assert "alpha_threshold =" not in out


def test_eigen_and_check_name_p_and_T_where_the_shot_overflows(tmp_path, capsys):
    # the shot from u(1) = 1 overflows at p = 300, T = 50: eigen once printed
    # only "(34, 'Numerical result out of range')", and check exited 1 on it
    assert main(["eigen", "--p", "300", "--T", "50"]) == EXIT_ERROR
    assert "first eigenpair (p=300.0, T=50)" in capsys.readouterr().err
    rc = main(["check", esempio0_cfg(tmp_path, T=50, p=300.0), "--eps", "0.5"])
    assert rc == EXIT_NO_RESULT
    assert "# alpha_threshold unavailable: first eigenpair (p=300.0, T=50)" in (
        capsys.readouterr().out)


def test_check_rejects_a_gamma_above_a_tables_exact_one(tmp_path, capsys):
    # t/(1+t^2) has gamma 0.49875 at p = 2: a declared 5.0 once printed a
    # threshold 10x below lambda_1 with "guarantees a positive solution"
    t = np.linspace(-5.0, 5.0, 201)
    table = {"kind": "custom_table", "t": t.tolist(), "f": (t / (1 + t * t)).tolist(),
             "is_nonnegative": True}
    cfg = write_cfg(tmp_path, {"T": 10, "p": 2.0, "gamma": 5.0, "nonlinearity": table})
    assert main(["check", cfg]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert ("config field 'gamma': gamma 5.0 at node k=1 exceeds the table's exact "
            "liminf F_k(xi)/xi^p = 0.498753") in captured.err
    assert captured.out == ""
    cfg = write_cfg(tmp_path, {"T": 10, "p": 2.0, "gamma": 0.49875, "nonlinearity": table})
    assert main(["check", cfg]) == EXIT_OK
    assert "guarantees a positive solution" in capsys.readouterr().out


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


def test_sweep_alpha_bounds_must_be_numbers(tmp_path, capsys):
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha={"lo": "a", "hi": 1.0, "n": 3}),
               "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_ERROR
    assert "config field 'alpha.lo': must be a number" in capsys.readouterr().err
    with pytest.raises(ConfigError) as info:
        expand_alphas({"lo": 0.1, "hi": None, "n": 3})
    assert info.value.field == "alpha.hi"


def test_sweep_alpha_list_not_increasing_exits_1(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha=[1.0, 0.5]), "--out", str(out)])
    assert rc == EXIT_ERROR
    assert ("config field 'alpha': alphas must be a nonempty sequence (length >= 1), "
            "strictly increasing, positive and finite") in capsys.readouterr().err
    assert not out.exists()


def test_sweep_row_errors_warn_and_exit_2(tmp_path, capsys, monkeypatch):
    rows = [SweepRow(alpha=1.0, n_solutions=0, min_energy=None, sup_norm=None,
                     positivity=None, nontriviality_zeta=None,
                     error="synthetic failure")]
    monkeypatch.setattr(dplap.solver, "sweep_alpha", lambda *a, **k: rows)
    out = str(tmp_path / "s.csv")
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha=[1.0]), "--out", out])
    assert rc == EXIT_NO_RESULT
    assert "synthetic failure" in capsys.readouterr().err
    assert open(out).read().splitlines()[1] == "1,0,,,,"


def test_sweep_zero_starts_exits_1_and_writes_no_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", esempio0_cfg(tmp_path, alpha=[0.5, 1.0]), "--starts", "0",
               "--out", str(out)])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: n_starts must be a positive integer" in err
    assert "warning" not in err
    assert not out.exists()


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

def test_import_does_not_load_scipy():
    # every CLI call is a fresh process; scipy is imported only where used
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dplap.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_eigen_does_not_load_scipy_linalg():
    # the first eigenpair is found by shooting with scalar arithmetic, no
    # linear algebra: `dplap eigen` pays no scipy.linalg import
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextlib, io, dplap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = dplap.cli.main(['eigen', '--p', '3', '--T', '20'])\n"
            "sys.exit(rc != 0 or 'scipy.linalg' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("args, loaded", [
    ("eigen --p 3 --T 20", {"core", "energy", "spectrum"}),
    ("check {cfg} --eps-scan", {"core", "energy", "spectrum", "nonlinearities", "existence"}),
    ("solve {cfg} --alpha 1 --out {out}",
     {"core", "energy", "spectrum", "nonlinearities", "solver"}),
    ("sweep {cfg} --out {out}", {"core", "energy", "spectrum", "nonlinearities", "solver"}),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, loaded):
    # every CLI call is a fresh process that pays for each dplap module it imports
    argv = args.format(cfg=esempio0_cfg(tmp_path, alpha=[1.0]), out=tmp_path / "out").split()
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextlib, io, dplap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = dplap.cli.main({argv!r})\n"
            "print(rc, *sorted(m for m in sys.modules if m.startswith('dplap.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60).stdout.split()
    assert out == [str(EXIT_OK)] + sorted(f"dplap.{m}" for m in loaded | {"cli"})


def test_eigen_p2_loads_lapack_without_scipy_linalg():
    # the closed-form comparison calls LAPACK's dsterf through its extension
    # module: `dplap eigen --p 2` pays no scipy.linalg package import
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextlib, io, dplap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = dplap.cli.main(['eigen', '--p', '2', '--T', '20'])\n"
            "sys.exit(rc != 0 or 'scipy.linalg' in sys.modules\n"
            "         or 'scipy.linalg._flapack' not in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_solve_on_a_table_loads_lapack_without_scipy_linalg(tmp_path):
    # a table potential needs no quadrature, and the Newton steps reach
    # LAPACK's extension module directly: `dplap solve` pays no
    # scipy.linalg package import
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t = np.linspace(-4.0, 4.0, 9)
    cfg = write_cfg(tmp_path, {"T": 5, "p": 2.0, "alpha": 1.0,
                               "nonlinearity": {"kind": "custom_table", "t": t.tolist(),
                                                "f": (t / (1 + t ** 2)).tolist()}})
    code = ("import sys, contextlib, io, dplap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = dplap.cli.main(['solve', {cfg!r}, '--out', {str(tmp_path / 'u.txt')!r}])\n"
            "sys.exit(rc != 0 or 'scipy.linalg' in sys.modules\n"
            "         or 'scipy.linalg._flapack' not in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    assert read_result(str(tmp_path / "u.txt"))[0]["residual"] <= 1e-10


@pytest.mark.parametrize("accessor_first", [True, False])
def test_lapack_accessor_and_scipy_linalg_share_one_module(accessor_first):
    # in either import order the solver and scipy.linalg.lapack call the
    # same f2py function objects, and scipy's own linalg still works
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "import numpy as np\n"
            "from dplap.solver import _lapack\n"
            f"if {accessor_first}:\n"
            "    mod = _lapack()\n"
            "    assert 'scipy.linalg' not in sys.modules\n"
            "    import scipy.linalg.lapack as lapack\n"
            "else:\n"
            "    import scipy.linalg.lapack as lapack\n"
            "    mod = _lapack()\n"
            "assert mod is sys.modules['scipy.linalg._flapack'] is _lapack()\n"
            "for name in ('dgtsv', 'dpttrf', 'dstebz'):\n"
            "    assert getattr(lapack, name) is getattr(mod, name), name\n"
            "from scipy.integrate import quad\n"
            "from scipy.linalg import eigh_tridiagonal\n"
            "assert abs(quad(lambda x: x * x, 0.0, 1.0)[0] - 1.0 / 3.0) < 1e-14\n"
            "w = eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), eigvals_only=True)\n"
            "assert np.allclose(w, 2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / 4.0))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_closed_form_cli_loads_quadpack_without_scipy_integrate(tmp_path):
    # check_consistency integrates a closed form's f through QUADPACK's
    # extension module: `dplap solve` and `dplap check` import neither the
    # scipy.integrate nor the scipy.linalg package
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = esempio0_cfg(tmp_path)
    code = ("import sys, contextlib, io, dplap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = dplap.cli.main(['solve', {cfg!r}, '--out', {str(tmp_path / 'u.txt')!r}])\n"
            f"    rc_check = dplap.cli.main(['check', {cfg!r}, '--eps', '0.5'])\n"
            f"sys.exit(rc != {EXIT_OK} or rc_check != {EXIT_NO_RESULT}\n"
            "         or 'scipy.integrate._quadpack' not in sys.modules\n"
            "         or 'scipy.integrate' in sys.modules or 'scipy.linalg' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    assert read_result(str(tmp_path / "u.txt"))[0]["residual"] <= 1e-10


@pytest.mark.parametrize("loader_first", [True, False])
def test_quadpack_loader_and_scipy_integrate_share_one_module(loader_first):
    # in either import order core.quad and scipy.integrate.quad call the
    # same extension module, and scipy's own quad still works
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.core.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from dplap.core import _scipy_extension, quad\n"
            f"if {loader_first}:\n"
            "    mod = _scipy_extension('integrate', '_quadpack')\n"
            "    assert 'scipy.integrate' not in sys.modules\n"
            "    import scipy.integrate\n"
            "else:\n"
            "    import scipy.integrate\n"
            "    mod = _scipy_extension('integrate', '_quadpack')\n"
            "assert mod is sys.modules['scipy.integrate._quadpack']\n"
            "assert mod is scipy.integrate._quadpack_py._quadpack\n"
            "assert abs(scipy.integrate.quad(lambda x: x * x, 0.0, 1.0)[0] - 1.0 / 3.0) < 1e-14\n"
            "assert quad(abs, -1.0, 2.0) == scipy.integrate.quad(abs, -1.0, 2.0)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
