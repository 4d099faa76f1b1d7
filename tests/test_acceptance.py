"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to stream them).

The heavy ensembles (the p = 10000 spike runs, the h3 norm table) are
computed once in module-scoped fixtures and shared across criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest

from kernelspectra.hermite import hermite_sum_kernel
from kernelspectra.lgraphs import (
    enumerate_multilabelings,
    label_simplifying_map,
    sample_trace_moment,
    verify_lemmas,
)
from kernelspectra.limit_law import (
    LimitLawParams,
    density,
    free_cumulants,
    moment,
    support,
)
from kernelspectra.simulate import (
    DataMatrixConfig,
    build_kernel_matrix,
    decompose_hermite_sum,
    ks_distance,
    rank_two_correction,
    sample_data,
    spectrum,
)
from kernelspectra.sparse_pca import SpikedModelConfig, sweep_tau

from oracles import concentration_probe, exact_trace_moment

H3 = hermite_sum_kernel([0.0, 0.0, 1.0])
H2_PLUS_H3 = hermite_sum_kernel([0.0, 1.0, 1.0])


def record(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2}: {status} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared ensembles


@pytest.fixture(scope="module")
def h3_norm_table():
    """Spectral norms of the cubic-Hermite kernel matrix over a size ladder,
    5 seeds each; target norm is 2 (gamma = nu = 1)."""
    table = {}
    t0 = time.time()
    for n in (250, 500, 1000, 2000):
        norms = []
        for seed in range(1000, 1005):
            X = sample_data(DataMatrixConfig(n=n, p=n, seed=seed))
            norms.append(spectrum(build_kernel_matrix(X, H3)).spectral_norm)
        table[n] = norms
    table["elapsed"] = time.time() - t0
    return table


@pytest.fixture(scope="module")
def spike_runs():
    """The non-odd-kernel spike experiment at n=1000, p=10000: Gaussian
    entries and the Rademacher negative control."""
    out = {}
    t0 = time.time()
    for law, seed in (("standard_gaussian", 11), ("symmetric_rademacher", 21)):
        cfg = DataMatrixConfig(n=1000, p=10000, entry_law=law, seed=seed)
        X = sample_data(cfg)
        K = build_kernel_matrix(X, H2_PLUS_H3)
        eigenvalues = np.linalg.eigvalsh(K)
        del K
        out[law] = {
            "eigenvalues": eigenvalues,
            "spikes": rank_two_correction(X, 1.0, fourth_moment=cfg.fourth_moment),
        }
        del X
    out["elapsed"] = time.time() - t0
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_semicircle_norm(h3_norm_table):
    errs = [abs(v - 2.0) for v in h3_norm_table[2000]]
    mean_err = float(np.mean(errs))
    ok = mean_err < 0.15 and h3_norm_table["elapsed"] < 120
    record(1, ok, f"h3 norm at n=p=2000: mean |norm - 2| = {mean_err:.4f} "
                  f"(< 0.15), table built in {h3_norm_table['elapsed']:.0f}s")
    assert mean_err < 0.15
    assert h3_norm_table["elapsed"] < 120


def test_criterion_02_linear_kernel_edge():
    X = sample_data(DataMatrixConfig(n=2000, p=2000, seed=7))
    s = spectrum(build_kernel_matrix(X, lambda y: y))
    err = abs(s.spectral_norm - 3.0)
    top_is_norm = s.lambda_max == pytest.approx(s.spectral_norm, abs=1e-12)
    ok = err < 0.15 and top_is_norm
    record(2, ok, f"h1 at n=p=2000: |norm - 3| = {err:.4f} (< 0.15), "
                  f"lambda_max == spectral norm: {top_is_norm}")
    assert err < 0.15
    assert top_is_norm


def test_criterion_03_esd_law():
    params = LimitLawParams(0.0, 2.0, 1.0)
    ks = []
    for seed in range(2000, 2005):
        X = sample_data(DataMatrixConfig(n=1000, p=1000, seed=seed))
        ks.append(ks_distance(spectrum(build_kernel_matrix(X, H2_PLUS_H3)), params))
    mean_ks = float(np.mean(ks))
    ok = mean_ks < 0.05
    record(3, ok, f"h2+h3 ESD vs mu(0,2,1) at n=p=1000: mean KS = {mean_ks:.4f} (< 0.05)")
    assert mean_ks < 0.05


def test_criterion_04_moment_consistency():
    t0 = time.time()
    rng = np.random.default_rng(401)
    worst_rel = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        nu = a * a + float(rng.uniform(0.3, 2.0))
        gamma = float(rng.uniform(0.3, 4.0))
        p = LimitLawParams(a, nu, gamma)
        sup = support(p)
        xs = np.linspace(sup.min_edge - 0.2, sup.max_edge + 0.2, 20001)
        rho = density(p, xs, epsilon=1e-7)
        for l in range(1, 9):
            nc = moment(p, l)
            numeric = float(np.trapezoid(rho * xs**l, xs))
            scale = max(abs(nc), 0.05 * sup.norm**l)
            worst_rel = max(worst_rel, abs(nc - numeric) / scale)
        # additivity of the free components, exactly
        total = free_cumulants(p, 10)
        mp_part = np.array([0.0] + [a**l * gamma ** (l - 1) for l in range(2, 11)])
        sc_part = np.zeros(10)
        sc_part[1] = gamma * (nu - a * a)
        assert np.max(np.abs(total - (mp_part + sc_part))) < 1e-12
    elapsed = time.time() - t0
    ok = worst_rel < 1e-4 and elapsed < 10
    record(4, ok, f"moments l<=8 NC-sum vs density integral over 10 random laws: "
                  f"worst rel dev {worst_rel:.2e} (< 1e-4), cumulant additivity "
                  f"exact to 1e-12 for l<=10, {elapsed:.1f}s (< 10s)")
    assert worst_rel < 1e-4
    assert elapsed < 10


BULK_EDGE = 2 * math.sqrt(20)  # limit law of h2+h3 at gamma=10 is this semicircle
WINDOW = BULK_EDGE + 0.3


def test_criterion_05_spike_reproduction(spike_runs):
    """Thm-1.6 spikes at the stated size: the rank-two correction carries
    exactly two nonzero eigenvalues, outside the bulk window and within
    0.5 of the predicted +-10; the full matrix shows two separated
    outliers (their exact location sits at the bulk-shifted image of the
    prediction; see the printed report and the repo notes)."""
    gauss = spike_runs["standard_gaussian"]
    ev = gauss["eigenvalues"]
    spikes = gauss["spikes"]

    # rank-two channel: the theorem's quantitative claim
    lo, hi = spikes.empirical
    assert spikes.locations == (-10.0, 10.0)
    spike_dev = max(abs(lo + 10.0), abs(hi - 10.0))
    spikes_outside = abs(lo) > WINDOW and abs(hi) > WINDOW
    # full-matrix phenomenon: one separated outlier beyond each bulk edge
    top_sep = ev[-1] - ev[-2]
    bot_sep = ev[1] - ev[0]
    outliers_visible = (
        ev[-1] > WINDOW + 1.0 and ev[0] < -WINDOW - 1.0 and top_sep > 1.0 and bot_sep > 1.0
    )
    n_outside = int(np.sum(ev > WINDOW) + np.sum(ev < -WINDOW))
    elapsed_ok = spike_runs["elapsed"] < 15 * 60

    ok = spike_dev < 0.5 and spikes_outside and outliers_visible and elapsed_ok
    record(5, ok,
           f"spike run n=1000 p=10000: rank-two eigenvalues ({lo:.2f}, {hi:.2f}) "
           f"within {spike_dev:.2f} of +-10 (< 0.5); K outliers at "
           f"({ev[0]:.2f}, {ev[-1]:.2f}) separated from the bulk by "
           f"({bot_sep:.2f}, {top_sep:.2f}); {n_outside} eigenvalues outside "
           f"[-{WINDOW:.2f}, {WINDOW:.2f}] (K outliers sit at the bulk-shifted "
           f"locations, not at +-10 themselves); elapsed {spike_runs['elapsed']:.0f}s")
    assert spike_dev < 0.5
    assert spikes_outside
    assert outliers_visible
    assert elapsed_ok


def test_criterion_05_negative_control(spike_runs):
    rad = spike_runs["symmetric_rademacher"]
    ev = rad["eigenvalues"]
    extreme = max(abs(ev[0]), abs(ev[-1]))
    no_spikes = rad["spikes"].locations == (0.0, 0.0)
    ok = extreme <= WINDOW and no_spikes
    record(5, ok, f"negative control (Rademacher, Ex^4=1): predicted spikes at 0, "
                  f"max |eigenvalue| = {extreme:.3f} <= bulk edge + 0.3 = {WINDOW:.3f}")
    assert no_spikes
    assert extreme <= WINDOW


def test_criterion_06_decomposition_scaling():
    rng = np.random.default_rng(601)
    ns = (100, 400, 1600)
    slopes = {}
    for d in (2, 3, 4):
        medians = []
        for n in ns:
            vals = [abs(decompose_hermite_sum(rng.standard_normal(n), d).s) for _ in range(200)]
            medians.append(float(np.median(vals)))
        if all(m <= 1e-12 for m in medians):
            slopes[d] = float("-inf")  # identically-zero remainder
        else:
            slopes[d] = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    slopes_ok = all(s <= -0.8 for s in slopes.values())

    worst = 0.0
    rng2 = np.random.default_rng(602)
    for trial in range(30):
        d = 2 + trial % 3
        n = int(rng2.integers(max(4, d), 11))
        z = rng2.standard_normal(n)
        dec = decompose_hermite_sum(z, d)
        zz = list(map(float, z))
        q_ref, r_ref = _brute_force_qr(zz, d)
        worst = max(worst, abs(dec.q - q_ref), abs(dec.r - r_ref))
    oracle_ok = worst < 1e-10

    ok = slopes_ok and oracle_ok
    record(6, ok, f"remainder scaling slopes {slopes} (all <= -0.8); "
                  f"q/r vs brute-force tuple sums: worst dev {worst:.1e} (< 1e-10)")
    assert slopes_ok
    assert oracle_ok


def _brute_force_qr(z, d):
    n = len(z)
    q = sum(math.prod(z[i] for i in tup) for tup in itertools.permutations(range(n), d))
    q *= math.sqrt(1.0 / (n**d * math.factorial(d)))
    r = 0.0
    if d >= 2:
        for tup in itertools.permutations(range(n), d - 1):
            r += (z[tup[0]] ** 2 - 1.0) * math.prod(z[i] for i in tup[1:])
        r *= math.sqrt(1.0 / (n**d * math.factorial(d))) * math.comb(d, 2)
    return q, r


def test_criterion_07_combinatorial_lemmas():
    t0 = time.time()
    total_classes = 0
    total_violations = 0
    map_failures = 0
    zero_excess_mismatches = 0
    for l in (2, 3, 4):
        for depth in (1, 2, 3):
            classes = enumerate_multilabelings(l, depth)
            total_classes += len(classes)
            total_violations += len(verify_lemmas(classes))
            for c in classes:
                image = label_simplifying_map(c)
                if image.validate() or image.distinct_p != c.distinct_p:
                    map_failures += 1
                if c.excess == 0 and image.excess != 0:
                    zero_excess_mismatches += 1
    elapsed = time.time() - t0
    ok = total_violations == 0 and map_failures == 0 and zero_excess_mismatches == 0 and elapsed < 120
    record(7, ok, f"lemma census over {total_classes} classes (l<=4, depth<=3): "
                  f"{total_violations} violations; {map_failures} invalid map images; "
                  f"{zero_excess_mismatches} zero-excess classes mapping off zero excess; "
                  f"{elapsed:.1f}s (< 120s)")
    assert total_violations == 0
    assert map_failures == 0
    assert zero_excess_mismatches == 0
    assert elapsed < 120


def test_criterion_08_trace_moment_oracle():
    exact = exact_trace_moment(2, 6, 6, [1.0])
    exact_ok = abs(exact - 5.0) < 1e-12
    mean, se = sample_trace_moment(2, 6, 6, [1.0], trials=10**5, seed=801)
    mc_ok = abs(mean - 5.0) <= 3 * se
    ok = exact_ok and mc_ok
    record(8, ok, f"E[Tr Q^2] linear kernel at (n,p)=(6,6): exact {exact!r} == 5; "
                  f"Monte Carlo {mean:.4f} +- {se:.4f} within 3 se")
    assert exact_ok
    assert mc_ok


def test_criterion_09_sparse_pca_null_tracking():
    t0 = time.time()
    n = 2000
    taus = [1.0, 1.5, 2.0, 2.5, 3.0]
    model = SpikedModelConfig(lam=0.9, sparsity=math.floor(0.3 * math.sqrt(n)), n=n, p=n, seed=31)
    res = sweep_tau(model, taus, trials=5)
    gaps = np.abs(res.null_mean - res.prediction)
    tracking_ok = bool(np.all(gaps < 0.1))
    pooled = np.sqrt(res.null_se**2 + res.spiked_se**2)
    z_scores = (res.spiked_mean - res.null_mean) / np.where(pooled > 0, pooled, np.inf)
    detection_ok = bool(np.any(z_scores > 3.0))
    elapsed = time.time() - t0
    ok = tracking_ok and detection_ok and elapsed < 30 * 60
    record(9, ok, f"null tracking at n=p=2000: max |mean - prediction| = "
                  f"{gaps.max():.4f} (< 0.1); spiked separation max z = "
                  f"{np.max(z_scores):.1f} (> 3 somewhere); {elapsed:.0f}s (< 30 min)")
    assert tracking_ok
    assert detection_ok
    assert elapsed < 30 * 60


def test_criterion_10_sign_property_grid():
    worst = 0.0
    for a in np.linspace(0.0, 1.6, 5):
        for dnu in np.linspace(0.2, 2.0, 5):
            for gamma in np.linspace(0.25, 6.0, 5):
                sup = support(LimitLawParams(float(a), float(a * a + dnu), float(gamma)))
                worst = min(worst, sup.max_edge + sup.min_edge)
    ok = worst >= -1e-8
    record(10, ok, f"sign property over the 5x5x5 grid (a >= 0): "
                   f"min(max_edge + min_edge) = {worst:.2e} (>= -1e-8)")
    assert worst >= -1e-8


def test_criterion_11_convergence_trend_and_concentration(h3_norm_table):
    medians = [float(np.median([abs(v - 2.0) for v in h3_norm_table[n]]))
               for n in (250, 500, 1000, 2000)]
    trend_ok = all(a > b for a, b in zip(medians, medians[1:]))

    rows = concentration_probe(
        hermite_sum_kernel([1.0]), [0.25, 1.0, 4.0, 16.0], n=500, trials=2, seed=1101
    )
    stats = [r["statistic"] for r in rows]
    spread = max(stats) / min(stats)
    probe_ok = spread < 3.0

    ok = trend_ok and probe_ok
    record(11, ok, f"h3 median norm errors over n=250..2000: "
                   f"{[round(m, 4) for m in medians]} (decreasing); "
                   f"concentration statistic spread across p/n in "
                   f"{{0.25,1,4,16}}: {spread:.2f}x (< 3x)")
    assert trend_ok
    assert probe_ok
