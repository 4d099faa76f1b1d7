import math

import numpy as np
import pytest

from kernelspectra.errors import ConfigError
from kernelspectra.hermite import kernel_moments
from kernelspectra.limit_law import LimitLawParams, support
from kernelspectra.simulate import DataMatrixConfig, build_kernel_matrix, sample_data, spectrum
from kernelspectra.sparse_pca import (
    SpikedModelConfig,
    SweepResult,
    ThresholdFunction,
    null_prediction,
    sample_spiked_data,
    smoothed_soft_threshold,
    sweep_tau,
    thresholded_covariance,
)


def test_threshold_piecewise_values():
    tau = 2.0
    assert smoothed_soft_threshold(0.5 * tau, tau) == 0.0
    assert smoothed_soft_threshold(2 * tau, tau) == pytest.approx(tau, abs=1e-14)
    # band endpoint: the unique C^1 quadratic gives k(1.2 tau) = 0.2 tau
    assert smoothed_soft_threshold(1.2 * tau, tau) == pytest.approx(0.2 * tau, abs=1e-12)
    assert smoothed_soft_threshold(-2 * tau, tau) == pytest.approx(-tau, abs=1e-14)


def test_threshold_is_c1():
    tau = 1.3
    h = 1e-7
    for x0, slope in ((0.8 * tau, 0.0), (1.2 * tau, 1.0)):
        left = (smoothed_soft_threshold(x0, tau) - smoothed_soft_threshold(x0 - h, tau)) / h
        right = (smoothed_soft_threshold(x0 + h, tau) - smoothed_soft_threshold(x0, tau)) / h
        assert left == pytest.approx(slope, abs=1e-5)
        assert right == pytest.approx(slope, abs=1e-5)


def test_threshold_odd_and_close_to_identity():
    tau = 0.9
    xs = np.linspace(-8, 8, 2001)
    k = smoothed_soft_threshold(xs, tau)
    assert np.max(np.abs(k + smoothed_soft_threshold(-xs, tau))) == 0.0
    outer = np.abs(xs) >= 1.2 * tau
    assert np.max(np.abs(k[outer] - xs[outer])) <= tau + 1e-14


def test_threshold_rejects_bad_tau():
    with pytest.raises(ConfigError):
        smoothed_soft_threshold(1.0, 0.0)
    with pytest.raises(ConfigError):
        ThresholdFunction(-1.0)


def test_threshold_moments_nonnegative_a_and_edge_equals_norm():
    # odd increasing kernel: a >= 0, so the top support edge is the norm
    for tau in (0.5, 1.0, 2.0, 3.0):
        a, nu = kernel_moments(ThresholdFunction(tau).as_kernel_spec())
        assert a >= 0.0
        sup = support(LimitLawParams(a=a, nu=nu, gamma=1.0))
        assert sup.max_edge == pytest.approx(sup.norm, abs=1e-9)


def test_spiked_config_validation():
    with pytest.raises(ConfigError):
        SpikedModelConfig(lam=0.0, sparsity=3, gamma=1.0, n=100)
    with pytest.raises(ConfigError):
        SpikedModelConfig(lam=1.0, sparsity=200, gamma=1.0, n=100)


def test_spike_vector_shape():
    cfg = SpikedModelConfig(lam=0.9, sparsity=7, gamma=2.0, n=50, seed=3)
    v = cfg.spike_vector()
    assert v.shape == (100,)
    assert np.count_nonzero(v) == 7
    nonzero = np.abs(v[v != 0.0])
    assert np.allclose(nonzero, 1 / math.sqrt(7))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(v, cfg.spike_vector())  # deterministic


def test_spiked_data_covariance_along_spike():
    cfg = SpikedModelConfig(lam=0.8, sparsity=5, gamma=1.0, n=4000, seed=4)
    X = sample_spiked_data(cfg)
    v = cfg.spike_vector()
    proj = v @ X
    # Var(v^T col) = 1 + lam; the sample variance of n samples of a
    # chi-squared-type statistic has sd ~ sqrt(2/n)*(1+lam)
    target = 1 + cfg.lam
    assert abs(np.mean(proj**2) - target) < 5 * math.sqrt(2 / cfg.n) * target
    assert np.array_equal(X, sample_spiked_data(cfg))
    assert not np.array_equal(X, sample_spiked_data(cfg, stream=1))


def test_thresholded_covariance_structure():
    X = sample_data(DataMatrixConfig(n=400, p=300, seed=5))
    tau = 1.5
    M = thresholded_covariance(X, tau)
    assert np.array_equal(M, M.T)
    # off-diagonal agrees with the zero-diagonal kernel matrix by definition
    K = build_kernel_matrix(X, ThresholdFunction(tau)).matrix
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
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=int(0.3 * math.sqrt(n)), gamma=1.0, n=n, seed=11)
    taus = [1.0, 1.5, 2.0]
    res = sweep_tau(null_cfg, spiked_cfg, taus, trials=3)
    assert res.CSV_COLUMNS == ("tau", "null_mean", "null_se", "spiked_mean", "spiked_se", "prediction")
    rows = res.rows()
    assert len(rows) == 3 and all(len(r) == 6 for r in rows)
    assert np.all(res.prediction > 0) and np.all(np.isfinite(res.prediction))
    # null curve already tracks the prediction loosely at n=500
    assert np.max(np.abs(res.null_mean - res.prediction)) < 0.2
    # the spiked model separates somewhere on the grid
    assert np.any(res.spiked_mean - res.null_mean > 3 * np.sqrt(res.spiked_se**2 + res.null_se**2))


def test_sweep_rejects_empty_grid():
    null_cfg = DataMatrixConfig(n=100, p=100, seed=0)
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=3, gamma=1.0, n=100, seed=1)
    with pytest.raises(ConfigError):
        sweep_tau(null_cfg, spiked_cfg, [], trials=1)


def test_sweep_trial_streams_distinct_at_66_trials(monkeypatch):
    # 66 trials: a stream index ti * 65 + t would give tau 0's trial 65 the
    # data of tau 1's trial 0
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
    spiked_cfg = SpikedModelConfig(lam=0.9, sparsity=1, gamma=1.0, n=4, seed=1)
    sweep_tau(null_cfg, spiked_cfg, [1.0, 2.0], trials=66)
    for kind, seen in draws.items():
        assert len(seen) == 132 and len(set(seen)) == 132, kind


def test_mean_se_scaling():
    # the reported standard error carries the 1/sqrt(trials) factor
    from kernelspectra.sparse_pca import _mean_se

    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(25))
    _, se25 = _mean_se(values)
    _, se5 = _mean_se(values[:5])
    assert se25 == pytest.approx(np.std(values, ddof=1) / 5.0, rel=1e-12)
    assert se25 < se5
