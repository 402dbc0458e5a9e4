"""CLI outputs against golden files in ``tests/golden/``.

Each case runs one CLI command and compares every file it writes with the
recorded one: CSV headers, JSON keys, row counts and text fields exactly,
numbers within 1e-12 relative, and NaN only where the file has NaN.  A
different BLAS moves a number in its last bits and passes; a change in an
algorithm moves it further and fails.  The files were written by the
commands below (the output path aside) and are regenerated only together
with a CHANGES.md entry saying which output moved and why.  ``two_regime_prices.csv`` is the input of the price cases:
``volatility.two_regime_prices(5, 300, 300)`` written with ``repr`` floats.

``p16_model.json`` is the linear p = 16 chain of the CI's console-script
step (Dirichlet(0.3) rows from ``np.random.default_rng(16)``); its pair
matrix (d = 120) runs the matrix-free bracket (``bounds_p16``).

Every spectral radius is a certified bracket [r - eps, r] whose width eps
is about 1e-15 r, so a 1e-12 relative rule on eps would measure only
rounding: the ``bounds`` cases compare their radius fields, and the curves
built from r + eps, through the bracket instead (``same_bounds_outputs``).
Another BLAS kernel moves the curves of ``simulate`` and the volatility
indicator by no more than the brackets' widths, well inside 1e-12
relative.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from nmcbounds import coupling
from nmcbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-12
PRICES = str(GOLDEN / "two_regime_prices.csv")
MODEL_P16 = str(GOLDEN / "p16_model.json")
ULP = 2.0 ** -52

# case name -> (argv with {out} for the output prefix, files written as suffixes)
CASES = {
    "bounds_ex1": (["bounds", "--example", "1", "--kappa", "0.1", "--out-prefix", "{out}"],
                   ["_bounds.csv", "_coefficients.json"]),
    "bounds_ex2": (["bounds", "--example", "2", "--kappa", "0.2", "--out-prefix", "{out}"],
                   ["_bounds.csv", "_coefficients.json"]),
    "simulate_ex1": (["simulate", "--example", "1", "--kappa", "0.1", "--trials", "20000",
                      "--seed", "3", "--out", "{out}.csv"], [".csv"]),
    "simulate_ex2": (["simulate", "--example", "2", "--kappa", "0.2", "--trials", "20000",
                      "--seed", "3", "--out", "{out}.csv"], [".csv"]),
    "coupling_check_ex1": (["coupling-check", "--example", "1", "--seed", "0",
                            "--out", "{out}.csv"], [".csv"]),
    "stats_prices": (["stats", "--prices", PRICES, "--out", "{out}.csv"], [".csv"]),
    "volatility_prices": (["volatility", "--prices", PRICES, "--date-stride", "10",
                           "--reps", "3", "--out-prefix", "{out}"],
                          ["_comparison.csv", "_garch.csv"]),
    "volatility_self_check": (["volatility", "--self-check", "--date-stride", "10",
                               "--out-prefix", "{out}"], ["_comparison.csv", "_garch.csv"]),
}


def same_value(new, old, where):
    if isinstance(old, bool) or old is None or isinstance(old, str):
        assert new == old, where
    elif isinstance(old, (int, float)):
        assert not isinstance(new, bool) and isinstance(new, (int, float)), where
        if math.isnan(old):             # a value the output declares undefined
            assert math.isnan(new), f"{where}: {new!r} vs nan"
        else:
            assert math.isclose(new, old, rel_tol=REL, abs_tol=0.0), f"{where}: {new!r} vs {old!r}"
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            same_value(a, b, f"{where}[{i}]")
    else:
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            same_value(new[key], old[key], f"{where}.{key}")


def csv_cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def same_csv(new_path, old_path):
    with open(new_path, newline="", encoding="utf-8") as fh:
        new = list(csv.reader(fh))
    with open(old_path, newline="", encoding="utf-8") as fh:
        old = list(csv.reader(fh))
    assert new[0] == old[0], "header"
    assert len(new) == len(old), "row count"
    for i, (a, b) in enumerate(zip(new[1:], old[1:]), start=1):
        assert len(a) == len(b), f"row {i}"
        for column, x, y in zip(old[0], a, b):
            same_value(csv_cell(x), csv_cell(y), f"row {i} {column}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    argv, suffixes = CASES[case]
    out = str(tmp_path / case)
    assert main([a.format(out=out) for a in argv]) == 0
    capsys.readouterr()
    if case.startswith("bounds"):
        same_bounds_outputs(out, case)
        return
    for suffix in suffixes:
        golden = GOLDEN / (case + suffix)
        if suffix.endswith(".json"):
            new = json.loads(Path(out + suffix).read_text(encoding="utf-8"))
            same_value(new, json.loads(golden.read_text(encoding="utf-8")), golden.name)
        else:
            same_csv(out + suffix, golden)


def test_coupling_check_builds_no_pair_matrix(tmp_path, capsys, monkeypatch):
    def no_pair_matrix(Ps):
        raise RuntimeError("coupling-check built a pair matrix")

    monkeypatch.setattr(coupling, "coupling_matrices", no_pair_matrix)
    test_cli_output_matches_golden("coupling_check_ex1", tmp_path, capsys)


# fields that carry the bracket's radius: r, its width and the curves built
# from r + eps
RADIUS_FIELDS = ("spectral_radius", "eps")
RADIUS_CURVES = ("spectral", "combined_small_n", "combined_large_n")


def same_bounds_outputs(out, case):
    """A ``bounds`` run against its golden files: every field but the radius
    ones as in the other cases.  The radius fields agree within the larger
    certified width w of the two brackets: each [r - eps, r] holds rho of
    its operator, and the two operators' entries differ by at most a few
    roundings, hence the 8 ulp of slack."""
    new = json.loads(Path(out + "_coefficients.json").read_text(encoding="utf-8"))
    old = json.loads((GOLDEN / (case + "_coefficients.json")).read_text(encoding="utf-8"))
    same_value({k: v for k, v in new.items() if k not in RADIUS_FIELDS},
               {k: v for k, v in old.items() if k not in RADIUS_FIELDS}, "coefficients")
    r_new, r_old = new["spectral_radius"], old["spectral_radius"]
    assert 0.0 < new["eps"] <= 2e-12 * r_new and 0.0 < old["eps"] <= 2e-12 * r_old
    w = max(new["eps"], old["eps"]) + 8 * ULP * r_old
    assert abs(r_new - r_old) <= w
    assert abs(new["eps"] - old["eps"]) <= w

    with open(out + "_bounds.csv", newline="", encoding="utf-8") as fh:
        new_rows = list(csv.reader(fh))
    with open(GOLDEN / (case + "_bounds.csv"), newline="", encoding="utf-8") as fh:
        old_rows = list(csv.reader(fh))
    header = old_rows[0]
    assert new_rows[0] == header and len(new_rows) == len(old_rows)
    # r + eps moves by at most 2w, so 2(1 - 1/p)(r + eps)^n by at most
    # 2(1 - 1/p)((s + 2w)^n - s^n); the clip at 2 only shrinks the move
    s = r_old + old["eps"]
    scale = 2.0 * (1.0 - 1.0 / new["p"])
    for i, (a, b) in enumerate(zip(new_rows[1:], old_rows[1:]), start=1):
        n = int(b[0])
        for column, x, y in zip(header, a, b):
            if column in RADIUS_CURVES:
                allowed = scale * ((s + 2 * w) ** n - s ** n) + REL * abs(float(y))
                assert abs(float(x) - float(y)) <= allowed, f"row {i} {column}"
            else:
                same_value(csv_cell(x), csv_cell(y), f"row {i} {column}")


def test_bracket_case_matches_golden(tmp_path, capsys):
    out = str(tmp_path / "bounds_p16")
    assert main(["bounds", "--model", MODEL_P16, "--out-prefix", out]) == 0
    capsys.readouterr()
    same_bounds_outputs(out, "bounds_p16")
