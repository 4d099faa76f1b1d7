import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_form
from oracles import threshold_expansion
from kernelspectra import rng as rngmod
from kernelspectra import simulate, sparse_pca
from kernelspectra.errors import ConfigError, DomainError, SizeCapError
from kernelspectra.hermite import (
    KernelSpec,
    build_quadrature,
    hermite_eval,
    hermite_sum_kernel,
    kernel_moments,
)
from kernelspectra.limit_law import LimitLawParams, support
from kernelspectra.simulate import (
    MAX_DATA_ENTRIES,
    MAX_MATRIX_SIDE,
    DataMatrixConfig,
    _kernel_matrix,
    _kernel_tiles,
    build_kernel_matrix,
    sample_data,
    spectrum,
)
from kernelspectra.sparse_pca import (
    SPARSE_DENSITY_CUT,
    SpikedModelConfig,
    SweepResult,
    ThresholdFunction,
    _thresholded_sparse,
    null_prediction,
    sample_spiked_data,
    sweep_tau,
    thresholded_covariance,
)


def test_threshold_piecewise_values():
    tau = 2.0
    k = ThresholdFunction(tau)
    assert k(0.5 * tau) == 0.0
    assert k(2 * tau) == pytest.approx(tau, abs=1e-14)
    # band endpoint: the unique C^1 quadratic gives k(1.2 tau) = 0.2 tau
    assert k(1.2 * tau) == pytest.approx(0.2 * tau, abs=1e-12)
    assert k(-2 * tau) == pytest.approx(-tau, abs=1e-14)


def test_threshold_is_c1():
    tau = 1.3
    k = ThresholdFunction(tau)
    h = 1e-7
    for x0, slope in ((0.8 * tau, 0.0), (1.2 * tau, 1.0)):
        left = (k(x0) - k(x0 - h)) / h
        right = (k(x0 + h) - k(x0)) / h
        assert left == pytest.approx(slope, abs=1e-5)
        assert right == pytest.approx(slope, abs=1e-5)


def _reference_threshold(x, tau):
    """The smoothed soft-threshold as three np.where branches and a sign."""
    ax = np.abs(x)
    quad = (1.25 / tau) * (ax - 0.8 * tau) ** 2
    return np.sign(x) * np.where(ax <= 0.8 * tau, 0.0, np.where(ax >= 1.2 * tau, ax - tau, quad))


# the Gram sums each entry over blocks of samples, in another order than
# numpy's one dsyrk, and scales each block's share by 1 / sqrt(n).  Two
# orders of a sum of n products differ by at most (n - 1) eps times the sum
# of their sizes, itself at most the Cauchy-Schwarz bound sqrt(g_ii g_jj);
# rounding errors that do not correlate grow like sqrt(n), so each entry
# must lie within eps sqrt(n) times that bound (at most 5.9 eps times it
# was seen, at n = 700, p = 300 in two blocks and n = p = 1000 in eight)
def _assert_near_the_numpy_gram(g, X):
    """g's upper triangle lies within rounding of numpy's X @ X.T / sqrt(n)."""
    p, n = X.shape
    want = X @ X.T / math.sqrt(n)
    bound = np.finfo(float).eps * math.sqrt(n) * np.sqrt(np.outer(np.diag(want), np.diag(want)))
    upper = np.triu(np.ones((p, p), dtype=bool))
    assert np.all(np.abs(g - want)[upper] <= bound[upper])


def _scaled_gram(X):
    """The builders' Gram of X, X X^T / sqrt(n) summed over X's blocks of
    samples (simulate._scaled_gram), mirrored into a full matrix, once it
    is checked against numpy's, so that a fault in the Gram cannot pass
    into both sides of an exact-bit comparison."""
    g = np.triu(simulate._scaled_gram(simulate._blocks_of(X), *X.shape))
    _assert_near_the_numpy_gram(g, X)
    return g + np.triu(g, 1).T


def _reference_kernel_matrix(X, kernel, keep_diagonal):
    """The kernel matrix summed from its two triangles, as both builders
    formed it before they shared one in-place builder."""
    n = X.shape[1]
    g = _scaled_gram(X)
    vals = kernel(g) / math.sqrt(n)
    upper = np.triu(vals, 1)
    if keep_diagonal:
        return upper + upper.T + np.diag(np.diag(vals))
    return upper + upper.T


@pytest.mark.parametrize("tau", [0.5, 1.375, 2.25, 3.125, 4.0])
def test_threshold_matches_reference(tau):
    xs = np.concatenate([
        np.linspace(-6.0, 6.0, 4001),
        [s * f * tau for s in (-1.0, 1.0) for f in (0.0, 0.8, 1.0, 1.2)],
        np.random.default_rng(0).standard_normal(5000) * tau,
    ])
    k = ThresholdFunction(tau)
    assert np.array_equal(k(xs), _reference_threshold(xs, tau))
    grid = xs.reshape(-1, 3)
    assert np.array_equal(k(grid), _reference_threshold(grid, tau))
    for x in xs[::97]:
        assert k(float(x)) == _reference_threshold(float(x), tau)


@pytest.mark.parametrize("keep_diagonal", [False, True])
@pytest.mark.parametrize("p, n", [(600, 300), (97, 150)])
def test_kernel_matrix_builder_matches_reference(p, n, keep_diagonal, monkeypatch):
    # tiles of one row, of many rows, and with a ragged last tile give the
    # same bits as the default tiling and the untiled reference
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=p))
    cases = [
        (hermite_sum_kernel([0.0, 1.0, 1.0]), None),  # h2 + h3
        (hermite_sum_kernel([4.0 ** (1 - d) for d in range(1, 13)]), None),
        (ThresholdFunction(1.5), lambda y: _reference_threshold(y, 1.5)),
    ]
    expected = [_reference_kernel_matrix(X, ref or kernel, keep_diagonal) for kernel, ref in cases]
    builder = _kernel_matrix if keep_diagonal else build_kernel_matrix
    for tile_entries in (simulate._TILE_ENTRIES, 1, 64, 1000):
        monkeypatch.setattr(simulate, "_TILE_ENTRIES", tile_entries)
        for (kernel, _), want in zip(cases, expected):
            assert np.array_equal(builder(X, kernel), want), tile_entries
        if keep_diagonal:
            public = thresholded_covariance(X, 1.5)
        else:
            public = build_kernel_matrix(X, ThresholdFunction(1.5))
        assert np.array_equal(public, expected[-1]), tile_entries


@pytest.mark.parametrize("p, n", [(600, 300), (97, 150)])
def test_sparse_threshold_builder_matches_reference(p, n, monkeypatch):
    # the sparse cell holds every tile's strict-upper entries, in row
    # order, and the diagonal with the dense builder's bits, at any tiling,
    # and is abandoned only for a support past the density cut
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=p))
    g = _scaled_gram(X)
    max_sparse = SPARSE_DENSITY_CUT * p * (p + 1) / 2
    # (tau, below the cut): supports of 69, 11, 4.9, 0.87 and 0.48% of the
    # upper triangle at p = 600; at p = 97 the diagonal alone, 2 / (p + 1)
    # of it, is past the cut
    taus = (0.5, 2.0, 2.5, 3.5, 4.0)
    cases = list(zip(taus, (False, False, False, True, True) if p == 600 else [False] * 5))
    expected = [thresholded_covariance(X, tau) for tau, _ in cases]
    # tiles of the Gram, and blocks of the kept values' threshold pass
    defaults = (simulate._TILE_ENTRIES, sparse_pca._TRIPLET_BLOCK)
    for tile_entries, block in (defaults, (1, 1), (64, 7), (1000, 1000)):
        monkeypatch.setattr(simulate, "_TILE_ENTRIES", tile_entries)
        monkeypatch.setattr(sparse_pca, "_TRIPLET_BLOCK", block)
        for (tau, below_cut), want in zip(cases, expected):
            cell = _thresholded_sparse(g, ThresholdFunction(tau), n, math.inf)
            assert np.array_equal(dense_form(cell), want), (tile_entries, tau)
            assert np.array_equal(cell.diagonal, np.diag(want))
            assert 2 * len(cell.values) == np.count_nonzero(want - np.diag(np.diag(want)))
            assert cell.rows.dtype == cell.cols.dtype == np.int32
            order = cell.rows.astype(np.int64) * p + cell.cols
            assert np.all(cell.rows < cell.cols) and np.all(np.diff(order) > 0)
            within_cut = _thresholded_sparse(g, ThresholdFunction(tau), n, max_sparse)
            assert (within_cut is not None) == below_cut, (tile_entries, tau)


@pytest.mark.parametrize("tile_entries", [1, 64, 1000, 32768])
@pytest.mark.parametrize("p", [97, 600])
def test_kernel_builder_evaluates_the_upper_triangle_in_bounded_tiles(p, tile_entries, monkeypatch):
    # the kernel sees each upper-triangle entry once, plus the lower part
    # of each tile's diagonal block, and never more than one tile at a time
    monkeypatch.setattr(simulate, "_TILE_ENTRIES", tile_entries)
    shapes = []

    def counting_kernel(y):
        shapes.append(y.shape)
        return _reference_threshold(y, 1.5)

    X = sample_data(DataMatrixConfig(n=150, p=p, seed=p))
    expected = _reference_kernel_matrix(X, lambda y: _reference_threshold(y, 1.5), False)
    assert np.array_equal(build_kernel_matrix(X, counting_kernel), expected)
    evaluated = sum(rows * cols for rows, cols in shapes)
    largest_rows = max(rows for rows, _ in shapes)
    assert p * (p + 1) // 2 <= evaluated <= p * (p + 1) // 2 + p * largest_rows
    assert max(rows * cols for rows, cols in shapes) <= max(tile_entries, p)
    assert sum(rows for rows, _ in shapes) == p  # the row slabs cover the rows once


def test_threshold_odd_and_close_to_identity():
    tau = 0.9
    xs = np.linspace(-8, 8, 2001)
    k = ThresholdFunction(tau)(xs)
    assert np.max(np.abs(k + ThresholdFunction(tau)(-xs))) == 0.0
    outer = np.abs(xs) >= 1.2 * tau
    assert np.max(np.abs(k[outer] - xs[outer])) <= tau + 1e-14


def test_threshold_rejects_bad_tau():
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            ThresholdFunction(tau)


def test_threshold_moments_nonnegative_a_and_edge_equals_norm():
    # odd increasing kernel: a >= 0, so the top support edge is the norm
    for tau in (0.5, 1.0, 2.0, 3.0):
        a, nu = kernel_moments(KernelSpec(evaluator=ThresholdFunction(tau)))
        assert a >= 0.0
        sup = support(LimitLawParams(a=a, nu=nu, gamma=1.0))
        assert sup.max_edge == pytest.approx(sup.norm, abs=1e-9)


def _largest_tau_below_the_split() -> float:
    """The largest tau whose band runs on the Gauss-Legendre rule."""
    tau = sparse_pca._J_SPLIT / sparse_pca.INNER_FRACTION
    while sparse_pca.INNER_FRACTION * tau >= sparse_pca._J_SPLIT:
        tau = math.nextafter(tau, 0.0)
    return tau


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 45.0))
@example(0.05)
# u = _J_SPLIT, where the J differences take their widest band, and the
# Gauss-Legendre band just below it
@example(sparse_pca._J_SPLIT / sparse_pca.INNER_FRACTION)
@example(_largest_tau_below_the_split())
@example(45.0)
def test_threshold_expansion_matches_the_mpmath_oracle(tau):
    # the order-200 Gauss-Hermite rule was off by 1.3e-4 to 1.2e-2 relative
    # in a and nu at tau = 0.5 to 10, since k_tau is only C^1
    exp = ThresholdFunction(tau).expansion(30)
    a, nu, coeffs = threshold_expansion(tau, 30)
    assert exp.a == pytest.approx(float(a), rel=1e-13, abs=0)
    assert exp.nu == pytest.approx(float(nu), rel=1e-13, abs=0)
    # 1e-13 relative, or, where a_d is near a zero, 1e-13 sqrt(nu) absolute
    for got, want in zip(exp.coefficients, coeffs):
        err = abs(got - float(want))
        assert err <= 1e-13 * abs(float(want)) or err <= 1e-13 * math.sqrt(float(nu))
    assert not np.any(exp.coefficients[1::2])  # k_tau is odd


def test_threshold_expansion_agrees_with_a_fine_quadrature():
    # the order-20000 rule converges algebraically on the C^1 kernel, more
    # slowly as the kinks at 0.8 tau and 1.2 tau move out to its sparser
    # nodes: in a its error is 6.0e-9 at tau = 0.5, 5.4e-8 at 2 and 1.6e-5
    # at 10, in nu 2.0e-8 to 6.5e-8, and in each a_d at most 1.6e-6 sqrt(nu)
    rule = build_quadrature(20000)
    for tau, bound in ((0.5, 5e-8), (2.0, 2e-7), (10.0, 5e-5)):
        exp = ThresholdFunction(tau).expansion(30)
        k = ThresholdFunction(tau)(rule.nodes)
        assert float(rule.weights @ (k * rule.nodes)) == pytest.approx(exp.a, rel=bound)
        assert float(rule.weights @ (k * k)) == pytest.approx(exp.nu, rel=bound)
        for d, c in enumerate(exp.coefficients, start=1):
            assert float(rule.weights @ (k * hermite_eval(d, rule.nodes))) == pytest.approx(
                c, rel=0, abs=bound * math.sqrt(exp.nu))


def test_threshold_expansion_at_degree_250_is_finite():
    # the recurrence on h_m(x) phi(x) stays in range at the largest tau with
    # a normal nu, and the Gauss-Legendre band at the smallest
    for tau in (1e-8, 3.7, 3.8, 46.3):
        exp = ThresholdFunction(tau).expansion(250)
        assert np.isfinite(exp.coefficients).all() and exp.nu >= np.finfo(float).tiny
        assert exp.residual <= exp.nu


@pytest.mark.parametrize("tau", [46.4, 50.0, 1e300])
def test_threshold_nu_underflow_names_tau(tau):
    # nu(tau) < 2.2e-308 past tau = 46.3; taus from 34.5 on used to exit 2
    # with "nu must be > 0" from the law's own check
    with pytest.raises(DomainError, match=re.escape(f"underflows double precision at tau = {tau}")):
        ThresholdFunction(tau).expansion(1)
    with pytest.raises(DomainError, match=re.escape(f"no null prediction at tau = {tau}")):
        null_prediction(tau, 1.0)


def test_spiked_config_validation():
    with pytest.raises(ConfigError):
        SpikedModelConfig(lam=0.0, sparsity=3, n=100, p=100)
    with pytest.raises(ConfigError):
        SpikedModelConfig(lam=1.0, sparsity=200, n=100, p=100)


def test_spike_vector_shape():
    cfg = SpikedModelConfig(lam=0.9, sparsity=7, n=50, p=100, seed=3)
    v = cfg.spike_vector()
    assert v.shape == (100,)
    assert np.count_nonzero(v) == 7
    nonzero = np.abs(v[v != 0.0])
    assert np.allclose(nonzero, 1 / math.sqrt(7))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(v, cfg.spike_vector())  # deterministic


def test_spiked_data_covariance_along_spike():
    cfg = SpikedModelConfig(lam=0.8, sparsity=5, n=4000, p=4000, seed=4)
    X = sample_spiked_data(cfg)
    v = cfg.spike_vector()
    proj = v @ X
    # Var(v^T col) = 1 + lam; the sample variance of n samples of a
    # chi-squared-type statistic has sd ~ sqrt(2/n)*(1+lam)
    target = 1 + cfg.lam
    assert abs(np.mean(proj**2) - target) < 5 * math.sqrt(2 / cfg.n) * target
    assert np.array_equal(X, sample_spiked_data(cfg))
    assert not np.array_equal(X, sample_spiked_data(cfg, stream=1))


@pytest.mark.parametrize("stream", [0, (3, 1)])
@pytest.mark.parametrize(
    "sparsity, gamma, n", [(1, 0.5, 40), (7, 2.0, 50), (9, 1.0, 300), (20, 0.5, 40)]
)
def test_spiked_data_matches_full_outer_product(sparsity, gamma, n, stream):
    # the spike added to the support's columns of each block gives the bits
    # of both outer-product forms, at sparsity = p too.  Each block of
    # samples draws its normals g, then its samples' w, from the one stream
    cfg = SpikedModelConfig(lam=0.9, sparsity=sparsity, n=n, p=round(gamma * n), seed=5)
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_SPIKE_COEF, stream)
    g, w = np.empty((cfg.p, cfg.n)), np.empty(cfg.n)
    for j0, j1 in simulate._column_blocks(cfg.p, cfg.n):
        g[:, j0:j1] = gen.standard_normal((j1 - j0, cfg.p)).T
        w[j0:j1] = gen.standard_normal(j1 - j0)
    v = cfg.spike_vector()
    expected = g + math.sqrt(cfg.lam) * np.outer(v, w)
    X = sample_spiked_data(cfg, stream=stream)
    assert np.array_equal(X, expected)
    rows = np.flatnonzero(v)
    g[rows] += math.sqrt(cfg.lam) * np.outer(v[rows], w)
    assert np.array_equal(X, g)


def test_thresholded_covariance_structure():
    X = sample_data(DataMatrixConfig(n=400, p=300, seed=5))
    tau = 1.5
    M = thresholded_covariance(X, tau)
    assert np.array_equal(M, M.T)
    # off-diagonal agrees with the zero-diagonal kernel matrix by definition
    K = build_kernel_matrix(X, ThresholdFunction(tau))
    off = ~np.eye(300, dtype=bool)
    assert np.max(np.abs((M - K)[off])) == 0.0
    # diagonal concentrates at the soft-threshold of sqrt(n): 1 - tau/sqrt(n)
    n = 400
    gap = np.abs(np.diag(M) - (1 - tau / math.sqrt(n)))
    assert gap.max() < 5 * math.sqrt(math.log(300) / n)


def test_thresholded_covariance_large_tau_kills_offdiagonal():
    X = sample_data(DataMatrixConfig(n=500, p=200, seed=6))
    M = thresholded_covariance(X, 10.0)
    off = ~np.eye(200, dtype=bool)
    assert np.max(np.abs(M[off])) == 0.0
    lam_max = spectrum(M).lambda_max
    assert lam_max == pytest.approx(np.max(np.diag(M)), abs=1e-12)
    # each diagonal entry is past the band (|x_i|^2 / sqrt(n) > 1.2 tau),
    # where k_tau(g) = g - tau: M_ii = |x_i|^2 / n - tau / sqrt(n) exactly,
    # up to rounding.  The largest of the 200 excesses |x_i|^2 / n - 1, each
    # of standard deviation sqrt(2 / n) = 0.063, lies below 6 of them
    excess = np.max(np.sum(X * X, axis=1)) / 500 - 1.0
    assert lam_max == pytest.approx(1.0 - 10.0 / math.sqrt(500) + excess, abs=1e-12)
    assert 0.0 < excess < 6 * math.sqrt(2 / 500)


def test_null_prediction_limits():
    # tau -> 0 recovers the identity kernel: shifted MP edge + 1 = (1+sqrt(g))^2
    assert null_prediction(1e-4, 1.0) == pytest.approx(4.0, abs=1e-3)
    assert null_prediction(10.0, 1.0) == pytest.approx(1.0, abs=1e-6)
    taus = np.linspace(0.5, 4.0, 8)
    preds = [null_prediction(t, 1.0) for t in taus]
    assert all(a > b for a, b in zip(preds, preds[1:]))  # monotone on the grid
    assert 1.0 < null_prediction(2.0, 1.0) < 4.0


def test_sweep_structure_and_signal():
    n = 500
    model = SpikedModelConfig(lam=0.9, sparsity=int(0.3 * math.sqrt(n)), n=n, p=n, seed=10)
    taus = [1.0, 1.5, 2.0]
    # six trials: at three, 6 of 40 seeds (15%) missed z > 3 on correct
    # code, and 3 of 20 on the row-major draws; at six, none of 40
    res = sweep_tau(model, taus, trials=6)
    assert res.CSV_COLUMNS == ("tau", "null_mean", "null_se", "spiked_mean", "spiked_se", "prediction")
    columns = res.columns()
    assert len(columns) == 6 and all(len(c) == 3 for c in columns)
    assert np.all(res.prediction > 0) and np.all(np.isfinite(res.prediction))
    # null curve already tracks the prediction loosely at n=500
    assert np.max(np.abs(res.null_mean - res.prediction)) < 0.2
    # the spiked model separates somewhere on the grid
    assert np.any(res.spiked_mean - res.null_mean > 3 * np.sqrt(res.spiked_se**2 + res.null_se**2))


def _count_sweep_paths(monkeypatch) -> dict:
    """Counts of the sweep's dense and sparse cells, by the call that
    builds each cell's M_tau: _kernel_tiles for a dense cell, a cell
    returned by _thresholded_sparse for a sparse one."""
    import kernelspectra.sparse_pca as sp

    calls = {"dense": 0, "sparse": 0}

    def counted(path, builder_step):
        def step(*args, **kwargs):
            built = builder_step(*args, **kwargs)
            calls[path] += built is not None
            return built

        return step

    monkeypatch.setattr(sp, "_kernel_tiles", counted("dense", sp._kernel_tiles))
    monkeypatch.setattr(sp, "_thresholded_sparse", counted("sparse", sp._thresholded_sparse))
    return calls


def _null_model(model: SpikedModelConfig) -> DataMatrixConfig:
    """The null model sweep_tau draws beside the spiked one."""
    return DataMatrixConfig(n=model.n, p=model.p, seed=model.seed)


def _assert_means_of_full_spectra(res, model, taus, trials):
    """Each sweep mean is the mean over trials of the full spectrum's
    lambda_max of thresholded_covariance, to 1e-12 relative."""
    for ti, tau in enumerate(taus):
        for sampler, cfg, means in (
            (sample_data, _null_model(model), res.null_mean),
            (sample_spiked_data, model, res.spiked_mean),
        ):
            tops = [
                spectrum(thresholded_covariance(sampler(cfg, stream=t), tau)).lambda_max
                for t in range(trials)
            ]
            assert means[ti] == pytest.approx(np.mean(tops), rel=1e-12)


def test_sweep_lambda_max_matches_full_spectrum(monkeypatch):
    # trial t's one draw per model serves every tau, on the dense path
    # (tau <= 2) and on the sparse one (tau = 3.5).  At p = 400 the Gram
    # sums two blocks of samples and each dense M_tau spans many tiles, and four dense
    # cells per Gram each read the Gram's triangle and diagonal after the
    # cell before wrote its M_tau beside them, so damage to either shows
    calls = _count_sweep_paths(monkeypatch)
    n = 400
    model = SpikedModelConfig(lam=0.9, sparsity=3, n=n, p=n, seed=12)
    taus = [0.5, 1.0, 1.5, 2.0, 3.5]
    res = sweep_tau(model, taus, trials=2)
    assert calls == {"dense": 2 * 2 * 4, "sparse": 2 * 2}, calls
    assert len(list(simulate._column_blocks(n, n))) == 2
    _assert_means_of_full_spectra(res, model, taus, trials=2)


def test_sweep_non_finite_kernel_value_in_a_later_tile_raises(monkeypatch):
    # the dense cells' finiteness check covers every tile of the lower
    # triangle the sweep writes, not just the first
    import kernelspectra.sparse_pca as sp

    tiles = []

    class NaNInThirdTile(ThresholdFunction):
        def __call__(self, x):
            out = super().__call__(x)
            if np.ndim(x) == 2:  # a dense tile; the sparse build evaluates 1-D
                tiles.append(x.shape)
                if len(tiles) == 3:
                    out[-1, -1] = math.nan
            return out

    monkeypatch.setattr(sp, "ThresholdFunction", NaNInThirdTile)
    model = SpikedModelConfig(lam=0.9, sparsity=3, n=300, p=300, seed=1)
    with pytest.raises(ConfigError, match="non-finite"):
        sweep_tau(model, [0.5], trials=1)
    assert len(tiles) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_lambda_max_at_tiny_p(p, monkeypatch):
    # at p <= 2 the Lanczos solve ends at k = p steps, and must still read
    # only the triangle the sweep writes M_tau into; at tau = 5 an M_tau
    # is the zero matrix, whose Krylov space is invariant at the first
    # step, unless a diagonal entry |x|^2 / sqrt(p) passes 4
    import kernelspectra.sparse_pca as sp

    calls = _count_sweep_paths(monkeypatch)
    grams, cell, dense_solves = [], {}, []

    def gram(blocks, p, n, scaled=sp._scaled_gram):
        grams.append((p, n))
        return scaled(blocks, p, n)

    def tiles(g, kernel, n, out, counted=sp._kernel_tiles):
        cell["tau"] = kernel.tau
        return counted(g, kernel, n, out)

    def solve(m):
        if isinstance(m, np.ndarray):  # the triangle the solve reads
            dense_solves.append((len(grams) - 1, cell["tau"], np.triu(m)))
        return simulate._extreme_eigenvalue(m)

    monkeypatch.setattr(sp, "_scaled_gram", gram)
    monkeypatch.setattr(sp, "_kernel_tiles", tiles)
    monkeypatch.setattr(sp, "_extreme_eigenvalue", solve)
    model = SpikedModelConfig(lam=0.9, sparsity=1, n=p, p=p, seed=12)
    taus = [0.01, 5.0]
    res = sweep_tau(model, taus, trials=2)
    assert calls["dense"] >= 4 and calls["sparse"] > 0, calls
    assert calls["dense"] + calls["sparse"] == 8
    _assert_means_of_full_spectra(res, model, taus, trials=2)
    # every dense solve reads M_tau, not the Gram that shares its array;
    # the Grams come in trial order, null before spiked
    assert len(dense_solves) == calls["dense"]
    for k, tau, got in dense_solves:
        sampler, cfg = ((sample_data, _null_model(model)), (sample_spiked_data, model))[k % 2]
        assert np.array_equal(got, np.triu(thresholded_covariance(sampler(cfg, stream=k // 2), tau)))


@pytest.mark.parametrize("n, p", [(50, 120), (80, 80), (300, 70), (5, 2), (1000, 1000)])
def test_sweep_gram_matches_the_numpy_gram(n, p):
    cfg = DataMatrixConfig(n=n, p=p, seed=n + p)
    X = sample_data(cfg)
    upper = np.triu(np.ones((p, p), dtype=bool))
    for blocks in (sparse_pca._data_blocks(cfg), simulate._blocks_of(X)):
        g = simulate._scaled_gram(blocks, p, n)
        _assert_near_the_numpy_gram(g, X)
        assert not np.any(g[~upper])  # the strict lower triangle is never written
    # the draw's blocks and the assembled X's give the same bits
    assert np.array_equal(g, simulate._scaled_gram(sparse_pca._data_blocks(cfg), p, n))


# The Lanczos solve takes 72 products at both taus, 8 between two Ritz
# checks; ARPACK's eigsh took 71: 21 to build its first Lanczos
# factorisation at its default ncv of 20, then 10 a restart
@pytest.mark.parametrize("tau, sparse", [(0.5, False), (2.0, True)], ids=["dense", "sparse"])
def test_sweep_lanczos_matvecs(tau, sparse):
    # a null M_tau at n = p = 400, on both of the sweep's paths: dense at
    # tau = 0.5 (69% non-zero), sparse at tau = 2.0 (11%; past the density
    # cut, so the sweep itself would build this one dense)
    X = sample_data(DataMatrixConfig(n=400, p=400, seed=0))
    if sparse:
        cell = _thresholded_sparse(_scaled_gram(X), ThresholdFunction(tau), 400, math.inf)
        expected = np.linalg.eigvalsh(dense_form(cell))[-1]
        product = cell.matvec
    else:
        m = thresholded_covariance(X, tau)
        expected = np.linalg.eigvalsh(m)[-1]
        product = m.__matmul__
    products = 0

    class Counted:
        shape = (400, 400)

        def matvec(self, v):
            nonlocal products
            products += 1
            return product(v)

    assert simulate._extreme_eigenvalue(Counted()) == pytest.approx(expected, rel=1e-12)
    assert products <= 72


def test_spiked_model_size_caps():
    with pytest.raises(SizeCapError):
        SpikedModelConfig(lam=0.9, sparsity=1, n=4, p=MAX_MATRIX_SIDE + 1)
    n = MAX_DATA_ENTRIES // 2 + 1
    with pytest.raises(SizeCapError):
        SpikedModelConfig(lam=0.9, sparsity=1, n=n, p=2)


def test_sweep_rejects_empty_grid():
    model = SpikedModelConfig(lam=0.9, sparsity=3, n=100, p=100, seed=0)
    with pytest.raises(ConfigError):
        sweep_tau(model, [], trials=1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", SweepResult.CSV_COLUMNS)
def test_sweep_result_columns_must_be_finite(name, bad):
    # only the prediction was checked: an inf spiked_se reached the CSV
    columns = {column: np.array([1.0, 2.0]) for column in SweepResult.CSV_COLUMNS}
    columns[name][1] = bad
    with pytest.raises(DomainError, match=f"column {name} is not finite"):
        SweepResult(*columns.values())


@pytest.mark.parametrize("n, p", [(100, 50), (50, 100), (200, 200)])
def test_sweep_null_model_has_the_spiked_models_shape(n, p, monkeypatch):
    # the sweep builds its null model from the spiked one, so the two
    # cannot differ in shape, and the null prediction is at the spiked
    # model's gamma; a separate null config once could
    import kernelspectra.sparse_pca as sp

    drawn = []

    def recording(cfg, stream=0):
        drawn.append(cfg)
        return simulate._data_blocks(cfg, stream=stream)

    monkeypatch.setattr(sp, "_data_blocks", recording)
    model = SpikedModelConfig(lam=0.9, sparsity=3, n=n, p=p, seed=2**64 - 1)
    res = sweep_tau(model, [1.0], trials=2)
    assert drawn == [_null_model(model)] * 2  # standard Gaussian, the default law
    assert res.prediction[0] == null_prediction(1.0, p / n)


def test_sweep_trial_streams_distinct_at_66_trials(monkeypatch):
    # one draw per trial and model, whatever the grid's length, and no two
    # trials share a stream
    import kernelspectra.sparse_pca as sp

    draws = {"null": [], "spiked": []}

    def recorder(kind, sampler):
        def sample(cfg, stream=0):
            blocks = list(sampler(cfg, stream=stream))
            draws[kind].append(b"".join(block.tobytes() for block in blocks))
            return iter(blocks)

        return sample

    monkeypatch.setattr(sp, "_data_blocks", recorder("null", sp._data_blocks))
    monkeypatch.setattr(sp, "_spiked_blocks", recorder("spiked", sp._spiked_blocks))
    sweep_tau(SpikedModelConfig(lam=0.9, sparsity=1, n=4, p=4, seed=0), [1.0, 2.0], trials=66)
    for kind, seen in draws.items():
        assert len(seen) == 66 and len(set(seen)) == 66, kind
    # both models draw from the one master seed, apart by their stream tags
    assert not set(draws["null"]) & set(draws["spiked"])


def test_apply_kernel_leaves_the_shared_gram_unchanged():
    # named for the removed _apply_kernel: its tile pass is _kernel_tiles,
    # its mirror-and-diagonal pass now sits in _kernel_matrix
    # a kernel returning its input (or a view of it) must not let the
    # in-place scaling reach the Gram the next kernel reads
    X = sample_data(DataMatrixConfig(n=40, p=30, seed=7))
    g = _scaled_gram(X)
    g[np.tril_indices(30, -1)] += 1.0  # asymmetric, so a kernel reading the lower triangle shows
    before = g.copy()
    for kernel, keep_diagonal in (
        (lambda y: y, True),
        (lambda y: y.T, False),
        (lambda y: y[:, :], True),
        (ThresholdFunction(0.5), True),
        (lambda y: y, False),
    ):
        m = _kernel_tiles(g, kernel, 40, out=np.full_like(g, np.nan))
        assert np.array_equal(g, before)
        assert not np.shares_memory(m, g)
        # written into the Gram itself, as _kernel_matrix does, the bits agree
        in_place = before.copy()
        in_place = _kernel_tiles(in_place, kernel, 40, out=in_place)
        assert np.array_equal(np.triu(in_place), np.triu(m))
        # _kernel_matrix mirrors that upper triangle with the diagonal kept;
        # build_kernel_matrix then zeroes the diagonal
        # as the builders hold it: the Gram's upper triangle, zeros below
        sym = np.triu(_scaled_gram(X))
        upper = np.triu(_kernel_tiles(sym, kernel, 40, out=np.empty_like(sym)))
        if keep_diagonal:
            built = _kernel_matrix(X, kernel)
        else:
            np.fill_diagonal(upper, 0.0)
            built = build_kernel_matrix(X, kernel)
        assert np.array_equal(built, upper + np.triu(upper, 1).T)
    expected = np.triu(before) / math.sqrt(40)
    m = _kernel_tiles(g, lambda y: y, 40, out=np.empty_like(g))
    assert np.array_equal(np.triu(m), expected)
    expected = np.triu(_scaled_gram(X)) / math.sqrt(40)
    assert np.array_equal(_kernel_matrix(X, lambda y: y), expected + np.triu(expected, 1).T)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernel_tiles_reject_non_finite_entries(bad):
    # the sweep's dense cells get no other check
    X = sample_data(DataMatrixConfig(n=40, p=30, seed=7))
    g = _scaled_gram(X)
    g[3, 20] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        _kernel_tiles(g, ThresholdFunction(0.5), 40, out=np.empty_like(g))
    with pytest.raises(ConfigError, match="non-finite"):
        build_kernel_matrix(X, lambda y: np.where(y > 2.0, bad, y))


def test_kernel_tiles_write_no_negative_zero_and_only_the_upper_triangle():
    # k_tau applies copysign in its zero zone, so half its zeros are -0.0;
    # every writer of the tiles (in place, a buffer, the sweep's g.T) gets
    # +0.0 in what it writes, and the rest of out keeps its bits
    X = sample_data(DataMatrixConfig(n=40, p=30, seed=7))
    g = _scaled_gram(X)
    threshold = ThresholdFunction(1.0)
    zeros = threshold(g[np.triu_indices(30)])
    assert np.signbit(zeros[zeros == 0.0]).any()
    upper = np.triu(np.ones((30, 30), dtype=bool))
    in_place, shared = g.copy(), g.copy()
    for source, out in ((in_place, in_place), (g, np.full((30, 30), -0.0)), (shared, shared.T)):
        before = out.copy()
        m = _kernel_tiles(source, threshold, 40, out=out)
        written = m[upper]
        assert np.array_equal(written, threshold(g[upper]) / math.sqrt(40))
        assert not np.signbit(written[written == 0.0]).any()
        # below the diagonal, out is as it was, -0.0 included
        assert np.array_equal(np.signbit(m[~upper]), np.signbit(before[~upper]))
        assert np.array_equal(m[~upper], before[~upper])


def test_mean_se_scaling():
    # the reported standard error carries the 1/sqrt(trials) factor
    from kernelspectra.sparse_pca import _mean_se

    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(25))
    _, se25 = _mean_se(values)
    _, se5 = _mean_se(values[:5])
    assert se25 == pytest.approx(np.std(values, ddof=1) / 5.0, rel=1e-12)
    assert se25 < se5
