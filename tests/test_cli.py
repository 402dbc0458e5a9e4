import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nmcbounds
from nmcbounds.cli import main

from conftest import NEUTRAL_CHAINS, bowl_kernel, read_report, two_cycle_kernel


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_price_csv(path, n=260, seed=0, constant=None):
    gen = np.random.default_rng(seed)
    if constant is not None:
        prices = np.full(n, float(constant))
    else:
        prices = 100 * np.exp(np.cumsum(gen.normal(0, 0.02, n)))
    from datetime import date, timedelta
    d0 = date(2019, 1, 1)
    lines = ["date,adj_close"]
    lines += [f"{(d0 + timedelta(days=i)).isoformat()},{prices[i]:.8f}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_bounds_example1_published_spectral_row(tmp_path, capsys):
    prefix = tmp_path / "ex1"
    code, out, err = run_cli(["bounds", "--example", "1", "--kappa", "0.1",
                              "--steps", "10", "--out-prefix", str(prefix)], capsys)
    assert code == 0
    cfg = json.loads(err.strip().splitlines()[0])
    assert cfg["command"] == "bounds" and cfg["seed"] == 0
    table = read_report(f"{prefix}_bounds.csv")
    spec_col = table.columns.index("spectral")
    values = [row[spec_col] for row in table.rows[:3]]
    assert values[0] == pytest.approx(0.54, abs=0.02)
    assert values[1] == pytest.approx(0.20, abs=0.02)
    assert values[2] == pytest.approx(0.07, abs=0.02)
    coeffs = json.loads((tmp_path / "ex1_coefficients.json").read_text())
    assert coeffs["gamma"] == pytest.approx(1 / 3, abs=1e-9)


def test_bounds_kappa_zero_gamma_zero(tmp_path, capsys):
    prefix = tmp_path / "lin"
    code, _, _ = run_cli(["bounds", "--example", "1", "--kappa", "0",
                          "--out-prefix", str(prefix)], capsys)
    assert code == 0
    coeffs = json.loads((tmp_path / "lin_coefficients.json").read_text())
    assert coeffs["gamma"] == 0.0


def test_bounds_invalid_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    prefix = tmp_path / "out"
    code, _, err = run_cli(["bounds", "--model", str(bad),
                            "--out-prefix", str(prefix)], capsys)
    assert code == 2
    assert not (tmp_path / "out_bounds.csv").exists()
    assert "error" in err


def test_bounds_rejects_negative_steps_before_writing(tmp_path, capsys):
    prefix = tmp_path / "neg"
    code, out, err = run_cli(["bounds", "--example", "1", "--steps", "-3",
                              "--out-prefix", str(prefix)], capsys)
    assert code == 2
    assert "error: --steps must be >= 0, got -3" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_bounds_zero_steps_writes_empty_curves(tmp_path, capsys):
    prefix = tmp_path / "zero"
    code, _, _ = run_cli(["bounds", "--example", "1", "--steps", "0",
                          "--out-prefix", str(prefix)], capsys)
    assert code == 0
    assert read_report(tmp_path / "zero_bounds.csv").rows == []
    assert (tmp_path / "zero_coefficients.json").exists()


def test_failed_coefficients_dump_leaves_no_file(tmp_path, monkeypatch):
    def failing_dump(self):
        raise OSError("disk full")

    monkeypatch.setattr(nmcbounds.bounds.BoundReport, "coefficients_dict", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        main(["bounds", "--example", "1", "--steps", "2", "--out-prefix", str(tmp_path / "cut")])
    assert not (tmp_path / "cut_coefficients.json").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cut_bounds.csv"]


def test_bounds_with_an_unavailable_delta_writes_nan_curves_and_strict_json(
        tmp_path, capsys, monkeypatch):
    def gives_up(K):
        raise nmcbounds.errors.NonconvergenceError("no fixed point within the iteration budget")

    def no_constant(name):
        raise ValueError(f"{name} is not a JSON number")

    monkeypatch.setattr(nmcbounds.bounds, "delta_estimate", gives_up)
    code, _, _ = run_cli(["bounds", "--example", "1", "--steps", "5",
                          "--out-prefix", str(tmp_path / "nodelta")], capsys)
    assert code == 0
    coeffs = json.loads((tmp_path / "nodelta_coefficients.json").read_text(),
                        parse_constant=no_constant)
    assert coeffs["delta"] is None
    assert any(f.startswith("delta_unavailable") for f in coeffs["flags"])
    header, *rows = (tmp_path / "nodelta_bounds.csv").read_text().splitlines()
    columns = header.split(",")
    assert len(rows) == 5
    for name in ("combined_small_n", "combined_large_n"):
        assert [row.split(",")[columns.index(name)] for row in rows] == ["nan"] * 5


def write_two_cycle_model(path):
    K = two_cycle_kernel()
    path.write_text(json.dumps({"p": 2, "degree": 2,
                                "coeff": [c.reshape(-1).tolist() for c in K.coeff]}),
                    encoding="utf-8")
    return str(path)


def test_simulate_on_a_repelling_fixed_point_exits_3_within_a_second(tmp_path, capsys):
    # the envelope measures TV to a fixed point that the flow never settles at
    model = write_two_cycle_model(tmp_path / "cycle.json")
    start = time.perf_counter()
    code, _, err = run_cli(["simulate", "--model", model, "--steps", "5",
                            "--out", str(tmp_path / "cycle.csv")], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.splitlines()[-1].startswith(
        "error: no attracting fixed point: Newton's method stopped at [0.38153098 0.61846902] "
        "(residual ")
    assert "linear rate 1.0247" in err
    assert not (tmp_path / "cycle.csv").exists()


@pytest.mark.parametrize("P", NEUTRAL_CHAINS, ids=["2-cycle", "2-periodic", "3-cycle"])
def test_simulate_on_a_periodic_chain_exits_3(tmp_path, capsys, P):
    model = tmp_path / "periodic.json"
    model.write_text(json.dumps({"p": len(P), "degree": 1, "coeff": [P.reshape(-1).tolist()]}),
                     encoding="utf-8")
    with pytest.warns(UserWarning, match="alpha == lambda == 0"):      # the report comes first
        code, _, err = run_cli(["simulate", "--model", str(model), "--steps", "5",
                                "--out", str(tmp_path / "periodic.csv")], capsys)
    assert code == 3
    assert "no attracting fixed point" in err and "linear rate 1.0000" in err
    assert not (tmp_path / "periodic.csv").exists()


def test_bounds_on_a_repelling_fixed_point_flags_delta_within_a_second(tmp_path, capsys):
    model = write_two_cycle_model(tmp_path / "cycle.json")
    start = time.perf_counter()
    code, _, _ = run_cli(["bounds", "--model", model, "--steps", "5",
                          "--out-prefix", str(tmp_path / "cycle")], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    text = (tmp_path / "cycle_coefficients.json").read_text()
    assert '"delta": null' in text
    coeffs = json.loads(text)
    [flag] = [f for f in coeffs["flags"] if f.startswith("delta_unavailable")]
    assert flag.startswith("delta_unavailable: no attracting fixed point: Newton's method "
                           "stopped at [0.38153098 0.61846902]")
    assert "linear rate 1.0247" in flag


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_rejects_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "sim_none.csv"
    code, _, err = run_cli(["simulate", "--example", "1", "--trials", trials,
                            "--out", str(out)], capsys)
    assert code == 2
    assert f"error: --trials must be >= 1, got {trials}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "0"],
    ["simulate", "--steps", "-1"],
    ["bounds", "--steps", "-3"],
    ["coupling-check", "--samples", "0"],
    ["coupling-check", "--steps", "-1"],
])
def test_bad_counts_are_rejected_before_the_report(tmp_path, capsys, monkeypatch, argv):
    # the counts are checked before the model is resolved, so no report work runs
    def never(*args, **kwargs):
        raise AssertionError("full_report was called")

    monkeypatch.setattr(nmcbounds.bounds, "full_report", never)
    monkeypatch.setattr(nmcbounds.experiments, "full_report", never)
    monkeypatch.setattr(nmcbounds.cli, "_resolve_kernel", never)
    out = ["--out-prefix", str(tmp_path / "x")] if argv[0] == "bounds" else [
        "--out", str(tmp_path / "x.csv")]
    code, _, err = run_cli(argv[:1] + ["--example", "1"] + argv[1:] + out, capsys)
    assert code == 2
    assert "error: --" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_domination_and_determinism(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--example", "1", "--kappa", "0.2", "--trials", "200",
            "--steps", "15", "--seed", "7", "--out", str(out)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    table = read_report(out)
    mx = table.columns.index("tv_max")
    t4 = table.columns.index("combined_small_n")
    for row in table.rows:
        assert row[mx] <= row[t4] + 1e-9
    first = out.read_bytes()
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert out.read_bytes() == first


def test_simulate_single_trial_collapses_envelope(tmp_path, capsys):
    out = tmp_path / "sim1.csv"
    code, _, _ = run_cli(["simulate", "--example", "2", "--kappa", "0.1",
                          "--trials", "1", "--steps", "5", "--seed", "1",
                          "--out", str(out)], capsys)
    assert code == 0
    table = read_report(out)
    lo = table.columns.index("tv_min")
    mid = table.columns.index("tv_mean")
    hi = table.columns.index("tv_max")
    for row in table.rows:
        assert row[lo] == row[mid] == row[hi]


def test_coupling_check_passes(tmp_path, capsys):
    out = tmp_path / "cc.csv"
    code, stdout, _ = run_cli(["coupling-check", "--example", "1", "--kappa", "0.1",
                               "--samples", "20000", "--steps", "5", "--seed", "3",
                               "--out", str(out)], capsys)
    assert code == 0
    assert "pass" in stdout
    table = read_report(out)
    assert table.columns == ["t", "tv1", "tv2", "q_exact", "q_empirical"]
    assert len(table.rows) == 6


def test_coupling_check_underpowered_exit0(tmp_path, capsys):
    out = tmp_path / "cc_small.csv"
    code, _, err = run_cli(["coupling-check", "--example", "1", "--samples", "10",
                            "--steps", "2", "--out", str(out)], capsys)
    assert code == 0
    assert "underpowered" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_coupling_check_rejects_samples_below_one(tmp_path, capsys, samples):
    out = tmp_path / "cc_none.csv"
    code, _, err = run_cli(["coupling-check", "--example", "1", "--samples", samples,
                            "--out", str(out)], capsys)
    assert code == 2
    assert f"error: --samples must be >= 1, got {samples}" in err
    assert "underpowered" not in err
    assert not out.exists()


def test_stats_synthetic_walk(tmp_path, capsys):
    prices = make_price_csv(tmp_path / "prices.csv", n=300, seed=5)
    out = tmp_path / "stats.csv"
    code, stdout, _ = run_cli(["stats", "--prices", str(prices), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("type,mean,std,skewness,kurtosis,ks_stat")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["X", "X*", "noise"]
    for line in lines[1:]:
        mean = float(line.split(",")[1])
        assert math.isfinite(mean)


def test_stats_constant_prices_degenerate_exit0(tmp_path, capsys):
    # the denoised returns and the noise of a constant path are rounding
    # noise, which KS and Ljung-Box would call highly significant
    for level in (50.0, 100.0, 1.0, 2e-3):
        prices = make_price_csv(tmp_path / "flat.csv", n=100, constant=level)
        out = tmp_path / "stats.csv"
        code, _, _ = run_cli(["stats", "--prices", str(prices), "--out", str(out)], capsys)
        assert code == 0
        table = read_report(out)
        assert [row[0] for row in table.rows] == ["X", "X*", "noise"]
        for row in table.rows:
            assert math.isnan(row[5]) and math.isnan(row[7]), (level, row)
            assert row[6] == row[8] == "degenerate", (level, row)


def test_stats_on_prices_near_the_float_limit(tmp_path, capsys):
    # the noise moments near 1e300 would overflow unscaled, and the
    # RuntimeWarning is an error under the test settings; scaling the prices
    # by 1e300 must scale the noise row's mean and std and keep the rest
    rows = {}
    for level in (1.0, 1e300):
        path = tmp_path / f"p{level:g}.csv"
        path.write_text("date,adj_close\n" + "".join(
            f"2020-01-{i + 1:02d},{level * (1 + i % 2)!r}\n" for i in range(31)),
            encoding="utf-8")
        out = tmp_path / f"s{level:g}.csv"
        code, _, _ = run_cli(["stats", "--prices", str(path), "--out", str(out)], capsys)
        assert code == 0
        rows[level] = read_report(out).rows[2]
    small, huge = rows[1.0], rows[1e300]
    assert huge[0] == "noise" and huge[6] != "degenerate" and huge[8] != "degenerate"
    assert huge[1:3] == pytest.approx([1e300 * v for v in small[1:3]], rel=1e-9)
    assert huge[3:] == pytest.approx(small[3:], rel=1e-9)


def test_stats_missing_file_exit2(tmp_path, capsys):
    code, _, err = run_cli(["stats", "--prices", str(tmp_path / "nope.csv"),
                            "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 2


def test_volatility_self_check(tmp_path, capsys):
    prefix = tmp_path / "vol"
    args = ["volatility", "--self-check", "--window-min", "40", "--window-max", "50",
            "--window-step", "10", "--reps", "2", "--date-stride", "25",
            "--seed", "2", "--out-prefix", str(prefix)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    line = next(l for l in stdout.splitlines() if l.startswith("self-check:"))
    assert "half medians" in line and "falls back:" in line and line.endswith("-> pass")
    assert (tmp_path / "vol_comparison.csv").exists()
    assert (tmp_path / "vol_garch.csv").exists()
    garch = read_report(tmp_path / "vol_garch.csv")
    assert [row[0] for row in garch.rows] == ["mu", "omega", "alpha1", "beta1"]


def test_volatility_deterministic_outputs(tmp_path, capsys):
    prefix = tmp_path / "det"
    args = ["volatility", "--self-check", "--window-min", "40", "--window-max", "40",
            "--window-step", "5", "--reps", "1", "--date-stride", "15",
            "--seed", "9", "--out-prefix", str(prefix)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    first = (tmp_path / "det_comparison.csv").read_bytes()
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert (tmp_path / "det_comparison.csv").read_bytes() == first


@pytest.mark.parametrize("flags", [["--reps", "1024"],
                                   ["--window-min", "1024", "--window-max", "1024"]])
def test_volatility_seed_collision_range_exits_2(tmp_path, capsys, flags):
    args = ["volatility", "--self-check", "--out-prefix", str(tmp_path / "x")] + flags
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "must be < 1024" in err
    assert not (tmp_path / "x_comparison.csv").exists()


def test_volatility_self_check_without_break_dates_writes_nothing(tmp_path, capsys):
    args = ["volatility", "--self-check", "--reps", "1", "--window-min", "60",
            "--window-max", "60", "--date-stride", "50", "--out-prefix", str(tmp_path / "x")]
    code, stdout, err = run_cli(args, capsys)
    assert code == 2
    assert "not enough evaluated dates around the variance break" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "-1"], "epochs must be >= 0"),
    (["--window-step", "0"], "--window-step must be >= 1"),
    (["--window-min", "80", "--window-max", "60"], "--window-min (80) must be <= --window-max (60)"),
    (["--states", "1"], "--states must be >= 2, got 1"),
    (["--date-stride", "0"], "--date-stride must be >= 1, got 0"),
], ids=["epochs", "window-step", "window-min-max", "states", "date-stride"])
def test_volatility_bad_flags_exit_2_naming_the_flag(tmp_path, capsys, flags, message):
    args = ["volatility", "--self-check", "--out-prefix", str(tmp_path / "x")] + flags
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert f"error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("level", [100.0, 1.0, 2e-3])
def test_volatility_constant_price_path_exits_2_before_any_fit(tmp_path, capsys, monkeypatch,
                                                               level):
    # the denoised returns of a constant path are rounding noise around 0;
    # without the check they fitted alpha1 = 0.50 with t = 6.1
    def no_fit(*args, **kwargs):
        raise AssertionError("an EM fit ran")

    monkeypatch.setattr("nmcbounds.volatility.fit_window_batch", no_fit)
    prices = make_price_csv(tmp_path / "flat.csv", n=300, constant=level)
    code, stdout, err = run_cli(["volatility", "--prices", str(prices),
                                 "--out-prefix", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "error: the price path is constant" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == [prices]


def test_volatility_prices_and_self_check_exclude_each_other(tmp_path, capsys):
    args = ["volatility", "--self-check", "--prices", str(make_price_csv(tmp_path / "p.csv")),
            "--date-stride", "50", "--reps", "1", "--out-prefix", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]


def test_price_csv_with_byte_order_mark_loads(tmp_path, capsys):
    plain = make_price_csv(tmp_path / "plain.csv", n=120)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for name in ("plain", "bom"):
        code, _, _ = run_cli(["stats", "--prices", str(tmp_path / f"{name}.csv"),
                              "--out", str(tmp_path / f"{name}_stats.csv")], capsys)
        assert code == 0
    assert (tmp_path / "bom_stats.csv").read_bytes() == (tmp_path / "plain_stats.csv").read_bytes()


def test_model_file_with_byte_order_mark_loads(tmp_path, capsys):
    from nmcbounds.experiments import EXAMPLE1_P
    text = json.dumps({"p": 4, "degree": 1, "coeff": [EXAMPLE1_P.reshape(-1).tolist()]})
    (tmp_path / "plain.json").write_text(text, encoding="utf-8")
    (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        code, _, _ = run_cli(["bounds", "--model", str(tmp_path / f"{name}.json"), "--steps", "3",
                              "--out-prefix", str(tmp_path / name)], capsys)
        assert code == 0
    for suffix in ("_bounds.csv", "_coefficients.json"):
        assert ((tmp_path / f"bom{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes())


def test_volatility_window_defaults_echoed(tmp_path, capsys):
    prefix = tmp_path / "echo"
    args = ["volatility", "--self-check", "--reps", "1", "--date-stride", "30",
            "--out-prefix", str(prefix)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    meta = json.loads(stdout.strip().splitlines()[0])
    assert meta["window_lengths"] == [60, 65, 70, 75, 80]


def test_console_entry_point(tmp_path):
    prefix = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "nmcbounds.cli", "bounds", "--example", "2",
         "--kappa", "0.1", "--steps", "3", "--out-prefix", str(prefix)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "cli_bounds.csv").exists()


def test_bounds_with_model_file(tmp_path, capsys):
    # an explicit model file equivalent to the 4-state built-in at kappa 0.1
    import numpy as np
    from nmcbounds.experiments import EXAMPLE1_P
    c2 = np.zeros((4, 4))
    c2[0, 0], c2[0, 2] = -0.1, 0.1
    doc = {"p": 4, "degree": 2,
           "coeff": [EXAMPLE1_P.reshape(-1).tolist(), c2.reshape(-1).tolist()]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    prefix = tmp_path / "m"
    code, _, _ = run_cli(["bounds", "--model", str(model), "--steps", "3",
                          "--out-prefix", str(prefix)], capsys)
    assert code == 0
    coeffs = json.loads((tmp_path / "m_coefficients.json").read_text())
    assert coeffs["gamma"] == pytest.approx(1 / 3, abs=1e-9)


def test_bounds_rejects_kernel_invalid_kappa(tmp_path, capsys):
    # example 2 leaves no room above kappa = 0.2 (entries 0.2 - kappa mu)
    prefix = tmp_path / "bad"
    code, _, err = run_cli(["bounds", "--example", "2", "--kappa", "0.24",
                            "--out-prefix", str(prefix)], capsys)
    assert code == 2
    assert "error: kernel invalid at mu: worst entry -4.000e-02, row-sum deviation" in err
    assert not (tmp_path / "bad_bounds.csv").exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_model_failing_between_sample_points_exits_2_up_front(tmp_path, capsys, command):
    # row 0 entry 0 is (t - 0.5)^2 - 1e-8 with t = mu[0]: negative only on a
    # window of width 2e-4, found by the exact validator before any flow runs
    c0 = [0.25 - 1e-8, 0.5 + 1e-8, 0.25, 0.25, 0.25, 0.5, 0.5, 0.25, 0.25]
    c1 = [-1.0, 1.0, 0.0] + [0.0] * 6
    c2 = [1.0, -1.0, 0.0] + [0.0] * 6
    model = tmp_path / "dip.json"
    model.write_text(json.dumps({"p": 3, "degree": 3, "coeff": [c0, c1, c2]}), encoding="utf-8")
    out = (["--out-prefix", str(tmp_path / "dip")] if command == "bounds"
           else ["--out", str(tmp_path / "dip.csv")])
    code, _, err = run_cli([command, "--model", str(model)] + out, capsys)
    assert code == 2
    assert err.splitlines()[-1] == ("error: kernel invalid at mu: worst entry -1.000e-08, "
                                    "row-sum deviation 0.000e+00")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dip.json"]


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_valid_model_with_lambda_above_one_is_reported(tmp_path, capsys, command):
    # entry (0, 0) is 0.01 + (t - 0.37)^2: valid, with lambda_1 up to 1.26
    # and gamma = 13.69 at t = 0.37
    K = bowl_kernel(0.01)
    model = tmp_path / "bowl.json"
    model.write_text(json.dumps({"p": 3, "degree": 3,
                                 "coeff": [c.reshape(-1).tolist() for c in K.coeff]}),
                     encoding="utf-8")
    out = (["--out-prefix", str(tmp_path / "bowl")] if command == "bounds"
           else ["--trials", "200", "--out", str(tmp_path / "bowl.csv")])
    code, _, _ = run_cli([command, "--model", str(model), "--steps", "5"] + out, capsys)
    assert code == 0
    if command == "bounds":
        coeffs = json.loads((tmp_path / "bowl_coefficients.json").read_text())
        assert coeffs["gamma"] == pytest.approx(13.69, abs=1e-9)
        assert coeffs["lambda"][0] > 1.0


@pytest.mark.parametrize("example, kappa, seed", [("1", "0.1", "1"), ("1", "0.1", "2"),
                                                  ("1", "0.1", "3"), ("2", "0.2", "0")])
def test_coupling_check_passes_correct_coupling_at_5000_samples(tmp_path, capsys,
                                                                example, kappa, seed):
    code, stdout, _ = run_cli(["coupling-check", "--example", example, "--kappa", kappa,
                               "--samples", "5000", "--seed", seed,
                               "--out", str(tmp_path / "cc.csv")], capsys)
    assert code == 0
    assert stdout.startswith("coupling check: pass")


# Cold start: the pytest process already holds scipy (test_ghmm imports
# scipy.stats), so what a fresh interpreter loads is checked in a subprocess.

COLD_RUN = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import nmcbounds, nmcbounds.cli
seen = [["import", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = nmcbounds.cli.main(argv)
    seen.append([" ".join(argv[:2]), code, scipy_modules()])
print(json.dumps(seen))
"""


def run_cold(args, cwd):
    src = str(Path(nmcbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


def test_cold_start_loads_no_scipy(tmp_path):
    commands = [
        ["bounds", "--example", "1", "--steps", "3", "--out-prefix", str(tmp_path / "b")],
        ["simulate", "--example", "2", "--trials", "20", "--steps", "3",
         "--out", str(tmp_path / "s.csv")],
        ["coupling-check", "--example", "1", "--samples", "2000", "--steps", "2",
         "--out", str(tmp_path / "cc.csv")],
    ]
    prices = make_price_csv(tmp_path / "prices.csv", n=300, seed=5)
    for source in (["--self-check"], ["--prices", str(prices)]):
        commands.append(["volatility", *source, "--reps", "1", "--window-min", "60",
                         "--window-max", "60", "--date-stride", "30",
                         "--out-prefix", str(tmp_path / source[0][2:])])
    proc = run_cold(["-c", COLD_RUN, json.dumps(commands)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == [["import", []], ["bounds --example", 0, []], ["simulate --example", 0, []],
                    ["coupling-check --example", 0, []], ["volatility --self-check", 0, []],
                    ["volatility --prices", 0, []]]


@pytest.mark.parametrize("command", ["stats", "volatility"])
def test_cold_scipy_commands_match_in_process(tmp_path, capsys, command):
    if command == "stats":
        prices = make_price_csv(tmp_path / "prices.csv", n=300, seed=5)
        outputs = ["{}.csv"]
        argv = ["stats", "--prices", str(prices), "--out", "{}.csv"]
    else:
        outputs = ["{}_comparison.csv", "{}_garch.csv"]
        argv = ["volatility", "--self-check", "--reps", "1", "--window-min", "60",
                "--window-max", "60", "--date-stride", "30", "--out-prefix", "{}"]
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    proc = run_cold(["-m", "nmcbounds.cli"] + [a.format(cold) for a in argv], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, _, _ = run_cli([a.format(warm) for a in argv], capsys)
    assert code == 0
    for name in outputs:
        assert Path(name.format(cold)).read_bytes() == Path(name.format(warm)).read_bytes()
