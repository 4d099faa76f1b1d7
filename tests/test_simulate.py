import itertools
import math

import numpy as np
import pytest

from kernelspectra.errors import ConfigError, DomainError, SizeCapError
from kernelspectra.limit_law import LimitLawParams, support
from kernelspectra.simulate import (
    DataMatrixConfig,
    SpectrumSummary,
    build_component_matrix,
    build_kernel_matrix,
    concentration_probe,
    decompose_hermite_sum,
    ks_distance,
    limit_cdf,
    rank_two_correction,
    rank_two_matrix,
    sample_data,
    sample_deformed_model,
    spectrum,
)


def h3(y):
    return (y**3 - 3 * y) / math.sqrt(6)


# ---------------------------------------------------------------------------
# data sampling


def test_sample_data_deterministic():
    cfg = DataMatrixConfig(n=50, p=40, seed=123)
    assert np.array_equal(sample_data(cfg), sample_data(cfg))
    assert not np.array_equal(sample_data(cfg), sample_data(cfg, stream=1))


def test_rademacher_entries():
    cfg = DataMatrixConfig(n=100, p=100, entry_law="symmetric_rademacher", seed=1)
    X = sample_data(cfg)
    assert set(np.unique(X)) == {-1.0, 1.0}
    assert cfg.fourth_moment == 1.0


def test_gaussian_moments_within_five_sigma():
    cfg = DataMatrixConfig(n=1000, p=1000, seed=2)
    X = sample_data(cfg)
    N = X.size
    assert abs(X.mean()) < 5 / math.sqrt(N)
    # Var[x^2] = 2 and Var[x^4] = 96 for a standard normal
    assert abs((X**2).mean() - 1.0) < 5 * math.sqrt(2 / N)
    assert abs((X**4).mean() - 3.0) < 5 * math.sqrt(96 / N)


def test_discrete_law_validation():
    ok = ("symmetric_discrete", (-math.sqrt(2), 0.0, math.sqrt(2)), (0.25, 0.5, 0.25))
    cfg = DataMatrixConfig(n=20, p=20, entry_law=ok, seed=0)
    assert cfg.fourth_moment == pytest.approx(2.0)
    with pytest.raises(ConfigError):  # variance != 1
        DataMatrixConfig(n=20, p=20, entry_law=("symmetric_discrete", (-2.0, 2.0), (0.5, 0.5)))
    with pytest.raises(ConfigError):  # asymmetric
        DataMatrixConfig(
            n=20, p=20,
            entry_law=("symmetric_discrete", (-2.0, 0.5), (0.2, 0.8)),
        )
    with pytest.raises(ConfigError):
        DataMatrixConfig(n=20, p=20, entry_law="cauchy")


def test_size_cap():
    with pytest.raises(SizeCapError):
        DataMatrixConfig(n=10, p=20001, seed=0)


# ---------------------------------------------------------------------------
# kernel matrices


def test_linear_kernel_matrix_identity():
    X = sample_data(DataMatrixConfig(n=30, p=20, seed=3))
    K = build_kernel_matrix(X, lambda y: y).matrix
    expected = X @ X.T / 30
    np.fill_diagonal(expected, 0.0)
    assert np.max(np.abs(K - expected)) < 1e-12


def test_kernel_matrix_shape_invariants():
    X = sample_data(DataMatrixConfig(n=25, p=35, seed=4))
    K = build_kernel_matrix(X, h3).matrix
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 0.0)


def test_kernel_negation_identities():
    # the Gram matrix is invariant under X -> -X, so K is too; negating
    # the kernel itself negates K entrywise
    X = sample_data(DataMatrixConfig(n=20, p=15, seed=5))
    K = build_kernel_matrix(X, h3).matrix
    assert np.max(np.abs(build_kernel_matrix(-X, h3).matrix - K)) < 1e-12
    K_neg = build_kernel_matrix(X, lambda y: -h3(y)).matrix
    assert np.max(np.abs(K_neg + K)) < 1e-12


def test_component_matrix_degree_one():
    X = sample_data(DataMatrixConfig(n=20, p=15, seed=6))
    K1 = build_component_matrix(X, 1, 1.0).matrix
    K_lin = build_kernel_matrix(X, lambda y: y).matrix
    assert np.max(np.abs(K1 - K_lin)) < 1e-12


def test_component_matrix_semicircle_esd():
    X = sample_data(DataMatrixConfig(n=1000, p=1000, seed=7))
    for d in (2, 3):
        s = spectrum(build_component_matrix(X, d, 1.0).matrix)
        assert ks_distance(s, LimitLawParams(0.0, 1.0, 1.0)) < 0.06


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_small_matrices():
    assert np.allclose(spectrum(np.eye(3)).eigenvalues, [1, 1, 1])
    s = spectrum(np.diag([3.0, -5.0]))
    assert s.spectral_norm == 5.0
    assert s.lambda_max == 3.0
    assert np.allclose(spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues, [1, -1])


def test_spectrum_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ConfigError):
        spectrum(m)


def test_esd_cdf():
    s = SpectrumSummary(eigenvalues=np.array([2.0, 1.0, -1.0]))
    assert s.esd_cdf(0.0) == pytest.approx(1 / 3)
    assert s.esd_cdf(5.0) == 1.0


def test_ks_synthetic_quantiles():
    p = LimitLawParams(0.0, 1.0, 1.0)
    xs = np.linspace(-2.5, 2.5, 8001)
    cdf = limit_cdf(p, xs)
    k = 400
    quantiles = np.interp((np.arange(k) + 0.5) / k, cdf, xs)
    s = SpectrumSummary(eigenvalues=np.sort(quantiles)[::-1])
    assert ks_distance(s, p) <= 1.0 / k + 1e-3


def test_ks_negative_control():
    X = sample_data(DataMatrixConfig(n=500, p=500, seed=8))
    s = spectrum(build_kernel_matrix(X, h3).matrix)
    assert ks_distance(s, LimitLawParams(0.0, 1.0, 1.0)) < 0.06
    # doubling nu compares semicircles of radius 2 and 2*sqrt(2); their CDF
    # sup-gap is 1 - F_{2sqrt2}(2) = 1/2 - (1/2 + pi/4)/pi ~ 0.0909
    assert ks_distance(s, LimitLawParams(0.0, 2.0, 1.0)) > 0.08


def test_ks_rejects_atomic_law():
    s = SpectrumSummary(eigenvalues=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        ks_distance(s, LimitLawParams(1.0, 1.0, 4.0))


# ---------------------------------------------------------------------------
# three-scale decomposition


def brute_force_q(z, d):
    n = len(z)
    total = 0.0
    for tup in itertools.permutations(range(n), d):
        total += math.prod(z[i] for i in tup)
    return math.sqrt(1.0 / (n**d * math.factorial(d))) * total


def brute_force_r(z, d):
    if d == 1:
        return 0.0
    n = len(z)
    total = 0.0
    for tup in itertools.permutations(range(n), d - 1):
        total += (z[tup[0]] ** 2 - 1.0) * math.prod(z[i] for i in tup[1:])
    return math.sqrt(1.0 / (n**d * math.factorial(d))) * math.comb(d, 2) * total


def test_decomposition_special_cases():
    z = np.random.default_rng(9).standard_normal(50)
    d1 = decompose_hermite_sum(z, 1)
    assert d1.r == 0.0 and d1.s == 0.0
    assert d1.q == pytest.approx(z.sum() / math.sqrt(50), abs=1e-12)
    d2 = decompose_hermite_sum(z, 2)
    assert abs(d2.s) < 1e-12


def test_decomposition_identity_is_exact():
    rng = np.random.default_rng(10)
    for d in (1, 2, 3, 4, 5):
        z = rng.standard_normal(200)
        dec = decompose_hermite_sum(z, d)
        assert dec.h_value == pytest.approx(dec.q + dec.r + dec.s, abs=1e-12)


def test_decomposition_against_brute_force():
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(100):
        d = 1 + trial % 4
        n = int(rng.integers(max(4, d), 11))
        z = rng.standard_normal(n)
        dec = decompose_hermite_sum(z, d)
        zz = list(map(float, z))
        assert dec.q == pytest.approx(brute_force_q(zz, d), abs=1e-10)
        assert dec.r == pytest.approx(brute_force_r(zz, d), abs=1e-10)
        checked += 1
    assert checked == 100


def test_decomposition_scale_separation_quick():
    # median |q| stays O(1); |r| and |s| shrink at n^-1/2 and n^-1 rates
    rng = np.random.default_rng(12)
    ns = (100, 400, 1600)
    med = {stat: [] for stat in "qrs"}
    for n in ns:
        qs, rs, ss = [], [], []
        for _ in range(60):
            dec = decompose_hermite_sum(rng.standard_normal(n), 3)
            qs.append(abs(dec.q))
            rs.append(abs(dec.r))
            ss.append(abs(dec.s))
        med["q"].append(np.median(qs))
        med["r"].append(np.median(rs))
        med["s"].append(np.median(ss))
    logn = np.log(ns)

    def slope(vals):
        return np.polyfit(logn, np.log(vals), 1)[0]

    assert abs(slope(med["q"])) < 0.3
    assert -0.3 > slope(med["r"]) > -0.7
    assert -0.75 > slope(med["s"]) > -2.0


def test_decomposition_size_error():
    with pytest.raises(SizeCapError):
        decompose_hermite_sum(np.ones(3), 4)


# ---------------------------------------------------------------------------
# rank-two correction


def test_rank_two_disabled_for_odd_kernels():
    X = sample_data(DataMatrixConfig(n=50, p=50, seed=13))
    sp = rank_two_correction(X, 0.0)
    assert sp.locations == () and sp.empirical == ()


def test_rank_two_roots_match_eigendecomposition():
    X = sample_data(DataMatrixConfig(n=200, p=200, seed=14))
    sp = rank_two_correction(X, 1.0)
    ev = np.linalg.eigvalsh(rank_two_matrix(X, 1.0))
    assert sp.empirical[0] == pytest.approx(ev[0], abs=1e-8)
    assert sp.empirical[1] == pytest.approx(ev[-1], abs=1e-8)
    assert abs(ev[1:-1]).max() < 1e-10  # rank two


def test_rank_two_prediction_formula():
    X = sample_data(DataMatrixConfig(n=20, p=200, seed=15))
    sp = rank_two_correction(X, 1.0, fourth_moment=3.0)
    assert sp.locations == (-10.0, 10.0)  # a2 * gamma * sqrt((3-1)/2)
    sp_r = rank_two_correction(X, 1.0, fourth_moment=1.0)
    assert sp_r.locations == (0.0, 0.0)


def test_rank_two_empirical_converges():
    X = sample_data(DataMatrixConfig(n=1500, p=1500, seed=16))
    sp = rank_two_correction(X, 1.0, fourth_moment=3.0)
    assert sp.empirical[0] == pytest.approx(-1.0, abs=0.15)
    assert sp.empirical[1] == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# deformed comparison model


def test_deformed_model_structure():
    params = LimitLawParams(1.0, 2.0, 1.0)
    dm = sample_deformed_model(150, 150, params, seed=17)
    assert np.max(np.abs(dm.M - dm.M.conj().T)) == 0.0
    assert np.all(np.diag(dm.V) == 0.0)
    # GUE normalization: off-diagonal real/imag parts have variance 1/2
    off = dm.W[np.triu_indices(150, 1)]
    assert np.var(off.real) == pytest.approx(0.5, rel=0.2)
    assert np.var(off.imag) == pytest.approx(0.5, rel=0.2)
    assert np.var(np.diag(dm.W).real) == pytest.approx(1.0, rel=0.3)


def test_deformed_model_rejects_bad_params():
    class FakeParams:
        a, nu, gamma = 2.0, 1.0, 1.0
        semicircle_variance = -3.0

    with pytest.raises(ConfigError):
        sample_deformed_model(10, 10, FakeParams(), seed=0)


def test_deformed_model_pure_gue_esd():
    params = LimitLawParams(0.0, 1.0, 1.0)
    dm = sample_deformed_model(1000, 1000, params, seed=18)
    s = spectrum(dm.M)
    assert ks_distance(s, params) < 0.05


def test_deformed_model_norm_tracks_limit_law():
    params = LimitLawParams(1.0, 2.0, 1.0)
    dm = sample_deformed_model(1000, 1000, params, seed=19)
    target = support(params).norm
    assert abs(spectrum(dm.M).spectral_norm - target) < 0.15


# ---------------------------------------------------------------------------
# concentration probe


def test_concentration_probe_rejects_even_kernel():
    with pytest.raises(ConfigError):
        concentration_probe(lambda y: y**2 - 1, [1.0], n=50)


def test_concentration_probe_ratio_bounded():
    rows = concentration_probe(lambda y: y, [0.25, 1.0, 4.0], n=250, trials=2, seed=20)
    stats = [r["statistic"] for r in rows]
    assert max(stats) / min(stats) < 3.0


def test_concentration_probe_trial_streams_distinct(monkeypatch):
    # 1001 trials: a stream index ridx * 1000 + t would give ratio 0's trial
    # 1000 the data of ratio 1's trial 0
    import kernelspectra.simulate as sim

    seen = []

    def sample(cfg, stream=0):
        X = sample_data(cfg, stream=stream)
        seen.append(X.tobytes())
        return X

    monkeypatch.setattr(sim, "sample_data", sample)
    concentration_probe(lambda y: y, [0.5, 0.5], n=4, trials=1001, seed=2)
    assert len(seen) == 2002 and len(set(seen)) == 2002


def test_concentration_probe_stable_in_n():
    rows_a = concentration_probe(h3, [1.0], n=300, trials=3, seed=21)
    rows_b = concentration_probe(h3, [1.0], n=600, trials=3, seed=22)
    a, b = rows_a[0]["statistic"], rows_b[0]["statistic"]
    assert abs(a - b) / a < 0.10


def test_component_sum_matches_free_convolution():
    # K_1 + K_2 + K_3 with unit coefficients has the law of (a=1, nu=3)
    X = sample_data(DataMatrixConfig(n=1000, p=1000, seed=23))
    K = sum(build_component_matrix(X, d, 1.0).matrix for d in (1, 2, 3))
    s = spectrum(K)
    assert ks_distance(s, LimitLawParams(1.0, 3.0, 1.0)) < 0.06


def test_rademacher_null_spikes_stay_in_bulk():
    # E x^4 = 1 kills the rank-two spikes of a non-odd kernel; the whole
    # spectrum stays within the bulk window
    cfg = DataMatrixConfig(n=1000, p=1000, entry_law="symmetric_rademacher", seed=24)
    X = sample_data(cfg)
    k23 = lambda y: (y**2 - 1) / math.sqrt(2) + h3(y)
    s = spectrum(build_kernel_matrix(X, k23).matrix)
    bulk_edge = 2 * math.sqrt(2.0)
    assert s.spectral_norm <= bulk_edge + 0.3
    assert rank_two_correction(X, 1.0, fourth_moment=cfg.fourth_moment).locations == (0.0, 0.0)
