import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmcbounds
from nmcbounds.cli import main
from nmcbounds.experiments import parse_report


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
    table = parse_report(f"{prefix}_bounds.csv")
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


def test_simulate_domination_and_determinism(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--example", "1", "--kappa", "0.2", "--trials", "200",
            "--steps", "15", "--seed", "7", "--out", str(out)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    table = parse_report(out)
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
    table = parse_report(out)
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
    table = parse_report(out)
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
    assert "error: samples must be >= 1" in err and "underpowered" not in err
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
    prices = make_price_csv(tmp_path / "flat.csv", n=100, constant=50.0)
    out = tmp_path / "stats.csv"
    code, _, _ = run_cli(["stats", "--prices", str(prices), "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "degenerate" in text


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
    garch = parse_report(tmp_path / "vol_garch.csv")
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
    assert "validation" in err
    assert not (tmp_path / "bad_bounds.csv").exists()


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
seen = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    code = nmcbounds.cli.main(argv)
    seen[argv[0]] = [code, scipy_modules()]
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
    proc = run_cold(["-c", COLD_RUN, json.dumps(commands)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "bounds": [0, []], "simulate": [0, []],
                    "coupling-check": [0, []]}


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
