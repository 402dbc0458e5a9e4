import tracemalloc

import numpy as np
import pytest

from nmcbounds import experiments
from nmcbounds.chain import Distribution, PolynomialKernel, evaluate_kernel, validate_kernel
from nmcbounds.errors import KernelInvalidError
from nmcbounds.experiments import (
    _ENVELOPE_BLOCK,
    _pairwise_total,
    EXAMPLE1_P,
    ComparisonTable,
    builtin_example,
    compare_bounds,
    export_report,
    tv_envelope,
)
from nmcbounds.rng import derive_seed

from conftest import read_report, row_sum_drift_kernel


def test_builtin_example1_matches_published_entries():
    K = builtin_example(1, 0.1)
    row = evaluate_kernel(K, Distribution([1, 0, 0, 0])).entries[0]
    assert row == pytest.approx([0.3, 0.2, 0.3, 0.2], abs=1e-15)


def test_builtin_example1_kappa_zero_is_linear():
    K = builtin_example(1, 0.0)
    assert (K.coeff[1] == 0).all()
    for mu in (Distribution([1, 0, 0, 0]), Distribution([0.25] * 4)):
        assert np.allclose(evaluate_kernel(K, mu).entries, EXAMPLE1_P)


def test_builtin_example2_validates_at_02():
    report = validate_kernel(builtin_example(2, 0.2))
    assert report.ok


def test_envelope_zero_at_fixed_point():
    from nmcbounds.chain import flow_batch, stationary
    K = builtin_example(1, 0.1)
    pi = stationary(K).distribution
    tv = np.abs(flow_batch(K, pi.probs[None, :], 5) - pi.probs).sum(axis=2)
    assert (tv < 1e-8).all()


def test_envelope_statistics_shape_and_trend():
    K = builtin_example(1, 0.1)
    env = tv_envelope(K, trials=1000, steps=15, rng=1)
    assert env.tv_min.shape == (16,)
    assert (env.tv_min <= env.tv_mean + 1e-15).all()
    assert (env.tv_mean <= env.tv_max + 1e-15).all()
    assert (env.tv_max <= 2.0).all()
    assert (np.diff(env.tv_mean) < 0).all()     # geometric mixing


def test_envelope_rank_one_collapses():
    K = PolynomialKernel.linear(np.tile([0.25, 0.25, 0.25, 0.25], (4, 1)))
    env = tv_envelope(K, trials=50, steps=4, rng=2)
    assert (env.tv_max[1:] < 1e-12).all()


@pytest.mark.parametrize("trials", [0, -5])
def test_envelope_rejects_trials_below_one_before_any_work(monkeypatch, trials):
    def no_fixed_point(K):
        raise AssertionError("stationary called")

    monkeypatch.setattr(experiments, "stationary", no_fixed_point)
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="trials must be >= 1"):
        tv_envelope(builtin_example(1, 0.1), trials, 5, gen)
    assert gen.bit_generator.state == state


def leaf_tree_sums(x, cap, split=None):
    """The last-axis sums of x, built from per-leaf `np.add.reduce` calls and
    added up along `_pairwise_total`'s tree (or, with ``split``, a tree
    that cuts there instead)."""
    pos = 0

    def leaf(m):
        nonlocal pos
        pos += m
        return np.add.reduce(x[..., pos - m:pos], axis=-1)

    if split is None:
        return _pairwise_total(x.shape[-1], cap, leaf)

    def tree(n):
        if n <= cap:
            return leaf(n)
        half = split(n)
        return tree(half) + tree(n - half)

    return tree(x.shape[-1])


def test_leaf_tree_follows_numpy_pairwise_order():
    # pins the summation order `tv_envelope` relies on for its mean: a numpy
    # build that sums a contiguous row in another order fails here
    gen = np.random.default_rng(34)
    moved = 0
    for n in (*range(1, 2101), 8191, 8192, 8193, 16385, 100000, 131073, 1000003):
        for shape in ((n,), (3, n)):
            x = gen.random(shape) * 10.0 ** gen.integers(-8, 8, shape)
            total = np.add.reduce(x, axis=-1)
            caps = (128, 200, _ENVELOPE_BLOCK) if n <= 2100 else (128, _ENVELOPE_BLOCK)
            for cap in caps:
                tree = leaf_tree_sums(x, cap)
                assert np.asarray(tree).tobytes() == total.tobytes(), (n, shape, cap)
                assert np.asarray(tree / n).tobytes() == x.mean(axis=-1).tobytes(), (n, shape, cap)
            if n > 128 and len(shape) == 1:
                moved += leaf_tree_sums(x, 128, split=lambda m: m // 2) != total
    assert moved > 0        # a split off numpy's multiples of 8 shows


def test_envelope_memory_does_not_grow_with_trials():
    # the (steps + 1) x trials TV matrix alone would be 48.8 MB here
    K = builtin_example(1, 0.1)
    tracemalloc.start()
    try:
        tv_envelope(K, 400_000, 15, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_envelope_rejects_row_sum_drift():
    # the barycenter is a fixed point where rows sum to 1, so the stationary
    # search passes; the flows from random starts must still be refused
    with pytest.raises(KernelInvalidError):
        tv_envelope(row_sum_drift_kernel(), trials=20, steps=5, rng=0)


def test_compare_bounds_columns_and_domination():
    K = builtin_example(1, 0.1)
    table, report = compare_bounds(K, steps=10, trials=200, seed=3)
    assert table.columns[0] == "n"
    md_col = table.columns.index("md")
    assert table.rows[0][md_col] == pytest.approx(0.8, abs=0.005)
    t4 = table.columns.index("combined_small_n")
    mx = table.columns.index("tv_max")
    for row in table.rows:
        assert row[mx] <= row[t4] + 1e-9
    spec_col = table.columns.index("spectral")
    assert table.rows[0][spec_col] == pytest.approx(0.54, abs=0.02)


def test_compare_bounds_deterministic():
    K = builtin_example(1, 0.2)
    t1, _ = compare_bounds(K, steps=5, trials=50, seed=11)
    t2, _ = compare_bounds(K, steps=5, trials=50, seed=11)
    assert t1.rows == t2.rows


def test_compare_bounds_envelope_has_its_own_stream():
    # the envelope starts come from derive_seed(seed, 1), whatever the
    # report's samplers draw
    K = builtin_example(1, 0.1)
    table, _ = compare_bounds(K, steps=5, trials=50, seed=11)
    env = tv_envelope(K, 50, 5, derive_seed(11, 1))
    cols = [table.columns.index(c) for c in ("tv_min", "tv_mean", "tv_max")]
    assert [[row[c] for c in cols] for row in table.rows] == [
        [float(env.tv_min[n]), float(env.tv_mean[n]), float(env.tv_max[n])] for n in range(1, 6)]


def test_export_roundtrip(tmp_path):
    K = builtin_example(1, 0.1)
    table, _ = compare_bounds(K, steps=6, trials=50, seed=5)
    path = tmp_path / "report.csv"
    export_report(table, path)
    data1 = path.read_bytes()
    assert b"\r" not in data1
    parsed = read_report(path)
    assert parsed.columns == table.columns
    export_report(parsed, path)
    assert path.read_bytes() == data1


def test_export_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    export_report(ComparisonTable(["a", "b"], []), path)
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_export_missing_directory(tmp_path):
    table = ComparisonTable(["a"], [[1.0]])
    target = tmp_path / "nope" / "out.csv"
    with pytest.raises(FileNotFoundError):
        export_report(table, target)
    assert not target.exists()
    assert not (tmp_path / "nope").exists()
