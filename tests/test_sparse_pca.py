import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from kernelspectra import rng as rngmod
from kernelspectra import simulate
from kernelspectra.errors import ConfigError, SizeCapError
from kernelspectra.hermite import hermite_sum_kernel, kernel_moments
from kernelspectra.limit_law import LimitLawParams, support
from kernelspectra.simulate import (
    MAX_DATA_ENTRIES,
    MAX_MATRIX_SIDE,
    DataMatrixConfig,
    _kernel_matrix,
    _kernel_tiles,
    _scaled_gram,
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
    _upper_gram,
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


def _reference_kernel_matrix(X, kernel, keep_diagonal):
    """The kernel matrix summed from its two triangles, as both builders
    formed it before they shared one in-place builder."""
    n = X.shape[1]
    g = (X @ X.T) / math.sqrt(n)
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
    # the CSR holds every tile's entries, their mirror and the diagonal with
    # the dense builder's bits, at any tiling, and is abandoned only for a
    # support past the density cut
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=p))
    g = _scaled_gram(X)
    max_sparse = SPARSE_DENSITY_CUT * p * (p + 1) / 2
    cases = [(0.5, False), (2.0, False), (3.0, True), (3.5, True)]  # (tau, below the cut)
    expected = [thresholded_covariance(X, tau) for tau, _ in cases]
    for tile_entries in (simulate._TILE_ENTRIES, 1, 64, 1000):
        monkeypatch.setattr(simulate, "_TILE_ENTRIES", tile_entries)
        for (tau, below_cut), want in zip(cases, expected):
            csr = _thresholded_sparse(g, ThresholdFunction(tau), n, math.inf)
            assert np.array_equal(csr.toarray(), want), (tile_entries, tau)
            assert csr.nnz == np.count_nonzero(want)
            assert (csr != csr.T).nnz == 0, (tile_entries, tau)  # no runtime check
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
        a, nu = kernel_moments(ThresholdFunction(tau).as_kernel_spec())
        assert a >= 0.0
        sup = support(LimitLawParams(a=a, nu=nu, gamma=1.0))
        assert sup.max_edge == pytest.approx(sup.norm, abs=1e-9)


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
    # the row-by-row spike gives the bits of both outer-product forms, at
    # sparsity = p too
    cfg = SpikedModelConfig(lam=0.9, sparsity=sparsity, n=n, p=round(gamma * n), seed=5)
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_SPIKE_COEF, stream)
    g = gen.standard_normal((cfg.p, cfg.n))
    w = gen.standard_normal(cfg.n)
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
    assert lam_max == pytest.approx(1.0 - 10.0 / math.sqrt(500), abs=0.2)


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
    null_cfg = DataMatrixConfig(n=n, p=n, seed=10)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=int(0.3 * math.sqrt(n)), n=n, p=n, seed=11)
    taus = [1.0, 1.5, 2.0]
    res = sweep_tau(null_cfg, spiked_cfg, taus, trials=3)
    assert res.CSV_COLUMNS == ("tau", "null_mean", "null_se", "spiked_mean", "spiked_se", "prediction")
    columns = res.columns()
    assert len(columns) == 6 and all(len(c) == 3 for c in columns)
    assert np.all(res.prediction > 0) and np.all(np.isfinite(res.prediction))
    # null curve already tracks the prediction loosely at n=500
    assert np.max(np.abs(res.null_mean - res.prediction)) < 0.2
    # the spiked model separates somewhere on the grid
    assert np.any(res.spiked_mean - res.null_mean > 3 * np.sqrt(res.spiked_se**2 + res.null_se**2))


def _count_sweep_paths(monkeypatch) -> dict:
    """Counts of the sweep's dense and CSR cells, by the call that builds
    each cell's M_tau: _kernel_tiles for a dense cell, a CSR returned by
    _thresholded_sparse for a sparse one."""
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


def _assert_means_of_full_spectra(res, null_cfg, spiked_cfg, taus, trials):
    """Each sweep mean is the mean over trials of the full spectrum's
    lambda_max of thresholded_covariance, to 1e-12 relative."""
    for ti, tau in enumerate(taus):
        for sampler, cfg, means in (
            (sample_data, null_cfg, res.null_mean),
            (sample_spiked_data, spiked_cfg, res.spiked_mean),
        ):
            tops = [
                spectrum(thresholded_covariance(sampler(cfg, stream=t), tau)).lambda_max
                for t in range(trials)
            ]
            assert means[ti] == pytest.approx(np.mean(tops), rel=1e-12)


def test_sweep_lambda_max_matches_full_spectrum(monkeypatch):
    # trial t's one draw per model serves every tau, on the dense path
    # (tau = 0.5) and on the sparse one (tau = 3.5)
    calls = _count_sweep_paths(monkeypatch)
    n = 60
    null_cfg = DataMatrixConfig(n=n, p=n, seed=12)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=3, n=n, p=n, seed=13)
    taus = [0.5, 2.0, 3.5]
    res = sweep_tau(null_cfg, spiked_cfg, taus, trials=2)
    assert calls["dense"] > 0 and calls["sparse"] > 0, calls
    assert calls["dense"] + calls["sparse"] == 2 * 2 * len(taus)
    _assert_means_of_full_spectra(res, null_cfg, spiked_cfg, taus, trials=2)


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_lambda_max_at_tiny_p(p, monkeypatch):
    # at p <= 2 the solve is LAPACK's, which must read the upper triangle
    # the sweep writes; at tau = 5 an M_tau is the zero CSR, which ARPACK
    # rejects at p = 3, unless a diagonal entry |x|^2 / sqrt(p) passes 4
    calls = _count_sweep_paths(monkeypatch)
    null_cfg = DataMatrixConfig(n=p, p=p, seed=12)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=1, n=p, p=p, seed=13)
    taus = [0.01, 5.0]
    res = sweep_tau(null_cfg, spiked_cfg, taus, trials=2)
    assert calls["dense"] >= 4 and calls["sparse"] > 0, calls
    assert calls["dense"] + calls["sparse"] == 8
    _assert_means_of_full_spectra(res, null_cfg, spiked_cfg, taus, trials=2)


@pytest.mark.parametrize("n, p", [(50, 120), (80, 80), (300, 70), (5, 2)])
def test_sweep_gram_matches_the_numpy_gram(n, p):
    # the sweep's dsyrk Gram has _scaled_gram's bits on the upper triangle
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=n + p))
    g = _upper_gram(X)
    want = _scaled_gram(X)
    assert g.flags.c_contiguous and g.shape == (p, p)
    upper = np.triu_indices(p)
    assert np.array_equal(g[upper], want[upper])
    assert not np.any(g[np.tril_indices(p, -1)])


# eigsh takes 71 products at both taus: 21 to build ARPACK's first
# Lanczos factorisation at its default ncv of 20, then 10 a restart
@pytest.mark.parametrize("tau, sparse", [(0.5, False), (2.0, True)], ids=["dense", "csr"])
def test_sweep_lanczos_matvecs(tau, sparse):
    # a null M_tau at n = p = 400, on both of the sweep's paths: dense at
    # tau = 0.5 (69% non-zero), CSR at tau = 2.0 (11%; past the density
    # cut, so the sweep itself would build this one dense)
    X = sample_data(DataMatrixConfig(n=400, p=400, seed=0))
    if sparse:
        m = _thresholded_sparse(_scaled_gram(X), ThresholdFunction(tau), 400, math.inf)
        expected = np.linalg.eigvalsh(m.toarray())[-1]
    else:
        m = thresholded_covariance(X, tau)
        expected = np.linalg.eigvalsh(m)[-1]
    products = 0

    def matvec(v):
        nonlocal products
        products += 1
        return m @ v

    counted = LinearOperator(m.shape, matvec=matvec, dtype=m.dtype)
    assert simulate._extreme_eigenvalue(counted, "LA") == pytest.approx(expected, rel=1e-12)
    assert products <= 71


def test_spiked_model_size_caps():
    with pytest.raises(SizeCapError):
        SpikedModelConfig(lam=0.9, sparsity=1, n=4, p=MAX_MATRIX_SIDE + 1)
    n = MAX_DATA_ENTRIES // 2 + 1
    with pytest.raises(SizeCapError):
        SpikedModelConfig(lam=0.9, sparsity=1, n=n, p=2)


def test_sweep_rejects_empty_grid():
    null_cfg = DataMatrixConfig(n=100, p=100, seed=0)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=3, n=100, p=100, seed=1)
    with pytest.raises(ConfigError):
        sweep_tau(null_cfg, spiked_cfg, [], trials=1)


@pytest.mark.parametrize("n, p", [(100, 50), (50, 100), (200, 200)])
def test_sweep_rejects_a_spiked_model_of_another_shape(n, p, monkeypatch):
    # its lambda_max used to be compared with the null prediction at the
    # null model's gamma
    import kernelspectra.sparse_pca as sp

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data for mismatched models")

    monkeypatch.setattr(sp, "sample_data", no_sampling)
    monkeypatch.setattr(sp, "sample_spiked_data", no_sampling)
    null_cfg = DataMatrixConfig(n=100, p=100, seed=0)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=3, n=n, p=p, seed=1)
    assert spiked_cfg.gamma == p / n
    with pytest.raises(ConfigError, match="shape"):
        sweep_tau(null_cfg, spiked_cfg, [1.0], trials=1)


def test_sweep_trial_streams_distinct_at_66_trials(monkeypatch):
    # one draw per trial and model, whatever the grid's length, and no two
    # trials share a stream
    import kernelspectra.sparse_pca as sp

    draws = {"null": [], "spiked": []}

    def recorder(kind, sampler):
        def sample(cfg, stream=0):
            X = sampler(cfg, stream=stream)
            draws[kind].append(X.tobytes())
            return X

        return sample

    monkeypatch.setattr(sp, "sample_data", recorder("null", sp.sample_data))
    monkeypatch.setattr(sp, "sample_spiked_data", recorder("spiked", sp.sample_spiked_data))
    null_cfg = DataMatrixConfig(n=4, p=4, seed=0)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=1, n=4, p=4, seed=1)
    sweep_tau(null_cfg, spiked_cfg, [1.0, 2.0], trials=66)
    for kind, seen in draws.items():
        assert len(seen) == 66 and len(set(seen)) == 66, kind


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
        sym = _scaled_gram(X)
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


def test_mean_se_scaling():
    # the reported standard error carries the 1/sqrt(trials) factor
    from kernelspectra.sparse_pca import _mean_se

    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(25))
    _, se25 = _mean_se(values)
    _, se5 = _mean_se(values[:5])
    assert se25 == pytest.approx(np.std(values, ddof=1) / 5.0, rel=1e-12)
    assert se25 < se5
