import json
import math
import warnings

import numpy as np
import pytest

from ids_stability import criteria_lmi, lmi_core, margin
from ids_stability.cli import main
from ids_stability.criteria_lmi import IllConditionedError, build_th2_lmi
from ids_stability.lmi_core import SolverConfig, check_witness
from ids_stability.model import DiscreteIds, IdsSystem, benchmark_system, save_system, validate_system
from ids_stability.suites import random_corpus


@pytest.fixture
def bench_file(tmp_path):
    def write(tau1, tau2, name="sys.json"):
        p = tmp_path / name
        p.write_text(save_system(benchmark_system(tau1, tau2)))
        return str(p)

    return write


def test_check_spectral_pass_and_fail(bench_file, capsys):
    assert main(["check", "--system", bench_file(0.3, 0.04), "--method", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out and "rho = " in out and "threshold = 0.5" in out
    assert main(["check", "--system", bench_file(0.3, 0.06), "--method", "spectral"]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_check_missing_file_is_usage_error(capsys):
    assert main(["check", "--system", "no-such.json", "--method", "spectral"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_unknown_method_is_usage_error(bench_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--system", bench_file(0.3, 0.04), "--method", "bogus"])
    assert exc.value.code == 2


def test_check_writes_reusable_witness(bench_file, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(
        [
            "check",
            "--system",
            bench_file(0.3, 0.05),
            "--method",
            "th2-lmi",
            "--witness-out",
            str(out),
        ]
    )
    assert code == 0
    payload = {k: np.array(v) for k, v in json.loads(out.read_text()).items()}
    problem = build_th2_lmi(benchmark_system(0.3, 0.05))
    assert check_witness(problem, payload, tol=1e-9)


def test_check_weighted_with_explicit_alpha(bench_file, capsys):
    code = main(
        [
            "check",
            "--system",
            bench_file(0.4, 0.02),
            "--method",
            "spectral-weighted",
            "--alpha",
            "0.9,0.1",
        ]
    )
    assert code == 0
    assert "rho = 0.97834" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["nan,nan", "0.5,nan"])
def test_check_weighted_non_finite_alpha_is_usage_error(bench_file, capsys, alpha):
    argv = ["check", "--system", bench_file(0.4, 0.02), "--method", "spectral-weighted"]
    assert main([*argv, "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "weights must be finite" in captured.err


@pytest.mark.parametrize("method", ["th1", "spectral"])
def test_check_alpha_for_another_method_is_usage_error(bench_file, capsys, method):
    argv = ["check", "--system", bench_file(0.4, 0.02), "--method", method]
    assert main([*argv, "--alpha", "0.5,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "only to 'spectral-weighted'" in captured.err


def _write(tmp_path, system):
    p = tmp_path / "sys.json"
    p.write_text(save_system(validate_system(system)))
    return str(p)


def _discrete(scale=1.0):
    A = (np.array([[0.3, 0.1], [0.0, 0.2]]), np.array([[0.1, 0.0], [0.2, -0.15]]))
    return DiscreteIds(A=tuple(scale * Ai for Ai in A), tau=(0.2, 0.5))


def _scalar(a, tau=1.0):
    return IdsSystem(A=(np.array([[a]]),), tau=(tau,))


def test_check_weighted_prints_optimized_alpha_first(bench_file, capsys):
    assert main(["check", "--system", bench_file(0.4, 0.02), "--method", "spectral-weighted"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha = ") and len(lines[0].split(", ")) == 2
    assert lines[1].startswith("rho = ") and lines[2:] == ["threshold = 1", "verdict: pass"]


def test_check_weighted_three_terms_ignores_seed(tmp_path, capsys):
    # a three-term system whose weights once moved in the 6th digit with
    # --seed; the flag is gone (see test_seed_flag_is_gone)
    path = _write(tmp_path, random_corpus(7, 64)[63])
    main(["check", "--system", path, "--method", "spectral-weighted"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("alpha = ") and len(out[0].split(", ")) == 3
    assert out[1].startswith("rho = ")


def test_check_single_delay_lines(tmp_path, capsys):
    A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])
    path = _write(tmp_path, IdsSystem(A=(A1,), tau=(0.44,)))
    assert main(["check", "--system", path, "--method", "single-delay"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho = 2.23607"  # |-1 +- 2i| = sqrt(5) < 1/0.44
    assert lines[1].startswith("norm = ") and float(lines[1][7:]) > 1 / 0.44
    assert lines[2:] == ["norm test: fail", "verdict: pass"]


@pytest.mark.parametrize("method, first", [("laa", "lambda_star = "), ("laa-spectral", "rho = ")])
def test_check_laa_methods_on_discrete_file(tmp_path, capsys, method, first):
    path = _write(tmp_path, _discrete())
    assert main(["check", "--system", path, "--method", method]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(first)
    assert lines[-1] in ("verdict: feasible", "verdict: pass")


def test_check_lmi_not_found_exits_1(tmp_path, capsys):
    path = _write(tmp_path, _scalar(3.0))  # 9 q - q < 0 has no solution q > 0
    code = main(["check", "--system", path, "--method", "single", "--max-iters", "300"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: not_found"


def test_check_prints_proven_lower_bound(bench_file, capsys):
    code = main(["check", "--system", bench_file(0.3, 3.0), "--method", "th2-lmi"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["lambda_star", "lower_bound", "verdict:"]
    assert lines[-1] == "verdict: not_found"
    lam, bound = (float(line.split(" = ")[1]) for line in lines[:2])
    assert 1e-6 <= bound <= lam


def test_check_th1_prints_lower_bound_from_the_dual_point(bench_file, capsys, monkeypatch):
    # th1 is decided through th2-lmi: it prints th2-lmi's lambda_star and
    # the lower bound of its last Newton step's dual point, with no cut LP
    calls = []
    real = lmi_core.linprog
    monkeypatch.setattr(lmi_core, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    path = bench_file(0.3, 3.0)
    assert main(["check", "--system", path, "--method", "th1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert main(["check", "--system", path, "--method", "th2-lmi"]) == 1
    assert lines == capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["lambda_star", "lower_bound", "verdict:"]
    lam, bound = (float(line.split(" = ")[1]) for line in lines[:2])
    assert 1e-6 <= bound <= lam and calls == []


def _no_map(sys, Q):
    raise criteria_lmi.ConversionError("no slack")


def _singular_map(sys, Q):
    raise criteria_lmi.IllConditionedError("sum(Q) is singular")


def _uncertified_map(sys, Q, real=criteria_lmi.witness_th1_lmi_from_th2):
    # R = 0 leaves block 0 at sum Q_i + sum S_i, which is PD
    w = real(sys, Q)
    return {**w, "R": np.zeros_like(w["R"])}


@pytest.mark.parametrize("mapping", [_no_map, _singular_map, _uncertified_map])
def test_check_th1_is_not_found_when_the_map_does_not_certify(bench_file, capsys, monkeypatch, mapping):
    # th2-lmi is feasible here, after a barrier run, so check prints a
    # lambda_star; a map that fails or a witness that does not pass th1's
    # blocks is a plain not_found: exit 1, never 3, and no bound.  Its
    # lambda_star is th1's own (inf with no mapped witness), never th2-lmi's
    # negative one
    path = bench_file(0.3, 0.1)
    assert main(["check", "--system", path, "--method", "th1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(criteria_lmi, "witness_th1_lmi_from_th2", mapping)
    assert main(["check", "--system", path, "--method", "th1"]) == 1
    out = capsys.readouterr().out
    assert "lower_bound" not in out and out.splitlines()[-1] == "verdict: not_found"
    lams = [float(line.split(" = ")[1]) for line in out.splitlines() if line.startswith("lambda_star")]
    assert len(lams) == 1 and lams[0] >= 0.0


@pytest.mark.parametrize("method", ["amc", "th2-coupled", "single"])
def test_check_prints_no_lambda_star_for_a_verdict_decided_before_any_search(bench_file, capsys, method):
    # the dual candidate decides not_found with no run, so there is no least
    # value of f to print; a feasible verdict still prints the witness's
    assert main(["check", "--system", bench_file(0.3, 3.0), "--method", method]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["lower_bound", "verdict:"]
    assert main(["check", "--system", bench_file(0.3, 0.04), "--method", method]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["lambda_star", "verdict:"]


def test_check_feasible_prints_no_lower_bound(bench_file, capsys):
    assert main(["check", "--system", bench_file(0.3, 0.05), "--method", "th2-lmi"]) == 0
    assert "lower_bound" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "method, system",
    [("laa", _scalar(0.5)), ("laa-spectral", _scalar(0.5)), ("spectral", _discrete()), ("amc", _discrete())],
)
def test_check_kind_mismatch_is_usage_error(tmp_path, capsys, method, system):
    assert main(["check", "--system", _write(tmp_path, system), "--method", method]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("stable", [True, False])
@pytest.mark.parametrize("method", sorted(margin.CRITERIA))
def test_check_exit_code_matches_criterion_feasible(tmp_path, capsys, method, stable):
    needs_discrete, _ = margin.CRITERIA[method]
    if needs_discrete:
        system = validate_system(_discrete(1.0 if stable else 4.0))
    else:
        system = validate_system(_scalar(0.5 if stable else 3.0))
    flags = ["--max-iters", "300"]
    code = main(["check", "--system", _write(tmp_path, system), "--method", method, *flags])
    ok, _ = margin.criterion_feasible(system, method, SolverConfig(max_iters=300))
    assert code == (0 if ok else 1)
    assert ok == stable


def test_margin_command_values(bench_file, capsys):
    assert main(["margin", "--system", bench_file(0.2, 0.1), "--vary", "1", "--method", "amc"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 0.1527) <= 2e-3
    assert (
        main(["margin", "--system", bench_file(0.4, 0.1), "--vary", "1", "--method", "spectral"])
        == 0
    )
    assert capsys.readouterr().out.strip() == "inf"


@pytest.mark.parametrize("flag, value", [("--hi", "inf"), ("--tol", "nan")])
def test_margin_non_finite_bracket_is_usage_error(bench_file, capsys, probe_limit, flag, value):
    argv = ["margin", "--system", bench_file(0.3, 0.05), "--vary", "1", "--method", "spectral"]
    assert main([*argv, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_margin_tol_below_the_float_spacing_returns(bench_file, capsys):
    argv = ["margin", "--system", bench_file(0.3, 0.1), "--vary", "1", "--method", "spectral"]
    assert main([*argv, "--tol", "1e-30"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.0474051) <= 1e-7


@pytest.mark.parametrize("method", ["spectral", "th2-lmi", "spectral-weighted"])
def test_margin_vary_index_out_of_range_is_usage_error(bench_file, capsys, method):
    # checked before the predicted edge, which would index past the delays
    argv = ["margin", "--system", bench_file(0.3, 0.1), "--vary", "2", "--method", method]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: vary index 2 out of range for N=2"]


def test_margin_varies_a_discrete_delay_between_its_neighbours(tmp_path, capsys):
    path = tmp_path / "discrete.json"
    path.write_text(save_system(DiscreteIds(A=(np.eye(2) / 4, np.eye(2) / 8), tau=(0.2, 0.5))))
    argv = ["margin", "--system", str(path), "--vary", "1", "--method", "laa-spectral"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "5\n"
    assert main([*argv, "--hi", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "to keep the delays increasing" in captured.err


def test_margin_th2_lmi_small_row(bench_file, capsys):
    assert (
        main(["margin", "--system", bench_file(0.1, 0.1), "--vary", "1", "--method", "th2-lmi"])
        == 0
    )
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 0.4882) <= 2e-3


def test_simulate_zero_system(tmp_path, capsys):
    sys_path = tmp_path / "zero.json"
    zero = validate_system(IdsSystem(A=(np.zeros((2, 2)),), tau=(0.4,)))
    sys_path.write_text(save_system(zero))
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--system",
            str(sys_path),
            "--h",
            "0.05",
            "--T",
            "3.0",
            "--history",
            "constant:1,0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t, x1, x2"
    data = [list(map(float, l.split(", "))) for l in lines[1:] if not l.startswith("#")]
    post = [row for row in data if row[0] > 0]
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in post)
    assert any(l.startswith("#") for l in lines)  # decay comments present


def test_simulate_scalar_system_takes_a_flat_sampled_history(tmp_path, capsys):
    sys_path, hist = tmp_path / "scalar.json", tmp_path / "history.json"
    sys_path.write_text(save_system(validate_system(IdsSystem(A=(np.array([[-1.0]]),), tau=(0.4,)))))
    hist.write_text("[1.0, 0.5, 0.2]")
    argv = ["simulate", "--system", str(sys_path), "--h", "0.05", "--T", "1.0", "--history", f"sampled:{hist}"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t, x1" and lines[1] == "-0.4, 1"


def test_simulate_bad_history_is_usage_error(bench_file, capsys):
    code = main(
        [
            "simulate",
            "--system",
            bench_file(0.3, 0.1),
            "--h",
            "0.01",
            "--T",
            "1.0",
            "--history",
            "wavelet:3",
        ]
    )
    assert code == 2
    assert "unknown history" in capsys.readouterr().err


@pytest.mark.parametrize("h, T", [("0.01", "inf"), ("0.01", "nan"), ("nan", "1.0")])
def test_simulate_non_finite_step_or_horizon_is_usage_error(bench_file, capsys, h, T):
    argv = ["simulate", "--system", bench_file(0.3, 0.1), "--h", h, "--T", T]
    assert main([*argv, "--history", "constant:1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "h and T must be finite" in captured.err


@pytest.mark.parametrize("history", ["constant:nan,0", "constant:inf,0", "sampled"])
def test_simulate_non_finite_history_is_usage_error(bench_file, tmp_path, capsys, history):
    if history == "sampled":
        path = tmp_path / "history.json"
        path.write_text("[[0.0, 1.0], [NaN, 0.0]]")
        history = f"sampled:{path}"
    argv = ["simulate", "--system", bench_file(0.3, 0.1), "--h", "0.01", "--T", "1.0"]
    assert main([*argv, "--history", history]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "history values must be finite" in captured.err


@pytest.mark.parametrize("samples", ["[[[1.0]],[[0.5]],[[0.2]]]", "[[1.0, 2.0], [0.5]]"])
def test_simulate_deep_or_ragged_sampled_history_is_usage_error(tmp_path, capsys, samples):
    sys_path, hist = tmp_path / "scalar.json", tmp_path / "history.json"
    sys_path.write_text(save_system(validate_system(IdsSystem(A=(np.array([[-1.0]]),), tau=(0.4,)))))
    hist.write_text(samples)
    argv = ["simulate", "--system", str(sys_path), "--h", "0.05", "--T", "1.0", "--history", f"sampled:{hist}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: samples must be a list of numbers or of equal-length vectors"]


def test_table1_cli_quick(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["table1", "--tol", "2e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau1, th2-lmi, amc, single, spectral"
    row04 = lines[1].split(", ")
    assert row04[0] == "0.4"
    assert row04[2] == "inf" and row04[3] == "inf" and row04[4] == "inf"
    assert abs(float(row04[1]) - 0.0317) <= 5e-3


def test_restarts_flag_is_gone(bench_file):
    # the solver makes one deterministic run, so there is nothing to restart
    with pytest.raises(SystemExit) as exc:
        main(["check", "--system", bench_file(0.3, 0.04), "--method", "amc", "--restarts", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["check", "margin", "table1"])
def test_seed_flag_is_gone(bench_file, command):
    # no solver result depends on a seed, so only simulate and selftest take one
    argv = {
        "check": ["--system", bench_file(0.3, 0.04), "--method", "amc"],
        "margin": ["--system", bench_file(0.3, 0.04), "--vary", "1", "--method", "spectral"],
        "table1": [],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "7"])
    assert exc.value.code == 2


def test_env_seed_override(monkeypatch):
    from ids_stability.cli import build_parser

    monkeypatch.setenv("IDS_STAB_SEED", "123")
    args = build_parser().parse_args(["selftest"])
    assert args.seed == 123


def test_bad_env_seed_is_usage_error_for_selftest(monkeypatch, capsys):
    monkeypatch.setenv("IDS_STAB_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2 and "'abc'" in capsys.readouterr().err


def test_bad_env_seed_is_usage_error_for_random_smooth(bench_file, monkeypatch, capsys):
    monkeypatch.setenv("IDS_STAB_SEED", "abc")
    argv = ["simulate", "--system", bench_file(0.3, 0.1), "--h", "0.01", "--T", "1.0"]
    assert main([*argv, "--history", "random-smooth"]) == 2
    assert "'abc'" in capsys.readouterr().err
    # an explicit seed does not read the variable
    assert main([*argv, "--history", "random-smooth:3"]) == 0


@pytest.mark.parametrize(
    "flag, value", [("--eps-feas", "-1"), ("--eps-feas", "0"), ("--eps-feas", "nan"), ("--max-iters", "-5")]
)
def test_invalid_solver_config_is_usage_error(bench_file, capsys, flag, value):
    # at tau = (0.4, 0.05) spectral fails, so no amc verdict may be "feasible"
    assert main(["check", "--system", bench_file(0.4, 0.05), "--method", "amc", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# -- exit code 3: numerical failures ------------------------------------------


def _system_file(tmp_path, A, tau):
    return _write(tmp_path, IdsSystem(A=A, tau=tau))


def _assert_numerical_failure(code, capsys):
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical failure")


def test_simulate_singular_step_is_numerical_failure(tmp_path, capsys):
    path = _system_file(tmp_path, (np.array([[200.0]]),), (0.1,))
    code = main(["simulate", "--system", path, "--h", "0.01", "--T", "1.0", "--history", "constant:1"])
    _assert_numerical_failure(code, capsys)


def test_check_overflowing_kron_sum_is_numerical_failure(tmp_path, capsys):
    path = _system_file(tmp_path, (np.array([[1e200, 0.0], [0.0, 1.0]]),), (0.3,))
    _assert_numerical_failure(main(["check", "--system", path, "--method", "spectral"]), capsys)


_NEAR_OVERFLOW = {
    "N2": ((np.diag([1e154, 1.0]), np.eye(2)), (0.3, 0.2)),
    "N3": ((np.diag([1e154, 1.0]), np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])), (0.3, 0.2, 0.1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["th2-lmi", "th1"])
@pytest.mark.parametrize("terms", sorted(_NEAR_OVERFLOW))
def test_check_barrier_start_lost_to_rounding_is_numerical_failure(tmp_path, capsys, method, terms):
    # against entries near 1e154 the start t0 = -f0 - 1 rounds away, so the
    # start slack is not positive definite; the run must not begin there
    path = _system_file(tmp_path, *_NEAR_OVERFLOW[terms])
    _assert_numerical_failure(main(["check", "--system", path, "--method", method]), capsys)


@pytest.mark.parametrize("terms", sorted(_NEAR_OVERFLOW))
def test_check_weighted_near_overflow_gives_a_verdict(tmp_path, capsys, terms):
    # the weights of a near-overflowing term are clipped, and the radius at them is finite
    path = _system_file(tmp_path, *_NEAR_OVERFLOW[terms])
    assert main(["check", "--system", path, "--method", "spectral-weighted"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "verdict: fail" and captured.err == ""


# the first entry of the adversarial corpus: rho(tau_2 A_2) = 200, so every
# verdict is plainly a failure, and the barrier's Newton step overflows
_ADVERSARIAL = ((np.diag([35.0, 20.0]), np.diag([-15.0, -40.0])), (0.5, 5.0))


@pytest.mark.parametrize("method", ["spectral", "spectral-weighted", "amc", "th2-coupled", "single", "th1", "th2-lmi"])
def test_check_adversarial_system_gives_a_clean_verdict_or_one_error_line(tmp_path, capsys, method):
    path = _system_file(tmp_path, *_ADVERSARIAL)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", "--system", path, "--method", method])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert code in (1, 3)
    if method in ("amc", "th2-coupled", "single"):
        # decided by single's Farkas certificate; th1 and th2-lmi may still
        # end in the barrier's numerical failure
        bound = [line for line in captured.out.splitlines() if line.startswith("lower_bound = ")]
        assert code == 1 and len(bound) == 1 and math.isfinite(float(bound[0].split(" = ")[1]))
    if code == 1:
        assert captured.err == "" and "nan" not in captured.out and "inf" not in captured.out
    else:
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


# systems whose barrier or proof LP overflows: the step length (4 terms,
# entries near 1e133, full precision needed), the squared Newton decrement
# (3 x 3, entries near 1e8) and the LP's steps (N = 2, rows near 1e228)
_OVERFLOWING = {
    "step-length": (
        (np.array([[-1.0299824237515514e106]]), np.array([[-8.566779839584403e-119]]),
         np.array([[-1.395761111293656e133]]), np.array([[1.227381918145922e133]])),
        (0.3258834424683706, 0.005033833288608912, 0.12160511661397955, 0.007619113876614718),
    ),
    "decrement": (
        (np.array([
            [-41728584.626078576, 20170421.884211708, 135698801.67822742],
            [-51046446.38389552, -68458840.07391703, 97849816.24319069],
            [-43567941.21681341, 5751497.481475611, -10567950.90211921],
        ]),),
        (0.22901902175154568,),
    ),
    "lp": (
        (
            np.array([
                [-8.444536956244314e82, -9.704194747851736e82, -1.4816722339955008e82],
                [1.1383840078212058e83, -4.762497804381867e82, 1.3458415485310754e82],
                [1.6325054553454348e82, -4.567942970224425e82, -7.486047214567183e81],
            ]),
            np.array([
                [-1.2034184667356132e114, -2.55713256927086e114, -4.700588923947756e113],
                [8.518501610860654e113, -8.097066155128824e112, -1.0709636714836477e114],
                [-3.0730235077201913e113, 1.2583897722178292e114, -1.0112371272103753e114],
            ]),
        ),
        (0.10440685269092244, 0.7149555832502047),
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["th2-lmi", "th1"])
@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_check_overflowing_barrier_or_lp_gives_a_verdict_or_one_error_line(tmp_path, capsys, method, case):
    path = _system_file(tmp_path, *_OVERFLOWING[case])
    code = main(["check", "--system", path, "--method", method])
    err = capsys.readouterr().err
    assert (code == 1 and err == "") or (
        code == 3 and len(err.strip().splitlines()) == 1 and err.startswith("error:")
    )


@pytest.mark.parametrize("method", ["th2-lmi", "th1"])
def test_check_negative_newton_decrement_gives_a_verdict(tmp_path, capsys, method):
    # a corpus system in units D = diag(10, 1e-2, 1e-2): rounding makes the
    # squared Newton decrement negative, which must end the barrier run, not
    # count as centred and grow s without a step until it overflows
    sys, D = random_corpus(2, 100)[74], np.diag([10.0, 1e-2, 1e-2])
    path = _system_file(tmp_path, tuple(np.linalg.inv(D) @ A @ D for A in sys.A), sys.tau)
    assert main(["check", "--system", path, "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.splitlines()[-1] == "verdict: not_found"


@pytest.mark.filterwarnings("error")
def test_check_infinite_kron_weight_warns_nothing(tmp_path, capsys):
    # tau^2 = inf times the zero entries of A (x) A is nan
    path = _system_file(tmp_path, (np.array([[0.0, 1.0], [0.0, 0.0]]),), (1e200,))
    _assert_numerical_failure(main(["check", "--system", path, "--method", "spectral"]), capsys)


def test_check_kron_term_scaled_by_its_weight_gives_a_verdict(tmp_path, capsys):
    # A (x) A overflows at 1e320, (tau A) (x) (tau A) is 1e300
    path = _system_file(tmp_path, (np.array([[1e160, 0.0], [0.0, 1.0]]),), (1e-10,))
    assert main(["check", "--system", path, "--method", "spectral"]) == 1
    captured = capsys.readouterr()
    assert "rho = 1e+300" in captured.out and "verdict: fail" in captured.out
    assert captured.err == ""


def test_simulate_divergence_is_numerical_failure(tmp_path, capsys):
    path = _system_file(tmp_path, (np.array([[10.0]]),), (0.5,))
    code = main(["simulate", "--system", path, "--h", "0.01", "--T", "400", "--history", "constant:1"])
    _assert_numerical_failure(code, capsys)


def test_simulate_norm_overflow_is_numerical_failure(tmp_path, capsys):
    # finite samples whose squared norms overflow
    path = _system_file(tmp_path, (np.array([[3.0]]),), (0.5,))
    code = main(["simulate", "--system", path, "--h", "0.01", "--T", "400", "--history", "constant:1"])
    _assert_numerical_failure(code, capsys)


def test_check_eig_nonconvergence_is_numerical_failure(bench_file, capsys, monkeypatch):
    def no_convergence(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    code = main(["check", "--system", bench_file(0.3, 0.04), "--method", "spectral"])
    _assert_numerical_failure(code, capsys)


def test_check_ill_conditioned_is_numerical_failure(bench_file, capsys, monkeypatch):
    def ill_conditioned(sys):
        raise IllConditionedError("sum(Q) has condition number 1e+13 > 1e12")

    monkeypatch.setitem(criteria_lmi.LMI_CRITERIA, "th2-lmi", ill_conditioned)
    code = main(["check", "--system", bench_file(0.3, 0.04), "--method", "th2-lmi"])
    _assert_numerical_failure(code, capsys)
