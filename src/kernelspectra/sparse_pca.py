"""Covariance thresholding for sparse-spike detection.

Data columns are N(0, Id + lambda v v^T) with a sparse unit vector v; the
sample covariance is entrywise thresholded at scale tau/sqrt(n) via a
smoothed soft-threshold, and the largest eigenvalue of the result is
compared against the analytic null prediction ||mu|| + 1 over a tau grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .errors import ConfigError
from .hermite import GaussHermiteRule, KernelSpec, build_quadrature, kernel_moments
from .limit_law import LimitLawParams, support
from .simulate import DataMatrixConfig, sample_data, spectrum

INNER_FRACTION = 0.8
OUTER_FRACTION = 1.2


def smoothed_soft_threshold(x, tau: float):
    """Odd C^1 threshold: 0 for |x| <= 0.8*tau, sign(x)*(|x|-tau) for
    |x| >= 1.2*tau, and the unique slope-matching quadratic
    (1.25/tau)*(|x|-0.8*tau)^2 on the transition bands."""
    if not tau > 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    quad = (1.25 / tau) * (ax - INNER_FRACTION * tau) ** 2
    out = np.where(
        ax <= INNER_FRACTION * tau,
        0.0,
        np.where(ax >= OUTER_FRACTION * tau, ax - tau, quad),
    )
    out = np.sign(x) * out
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ThresholdFunction:
    """Callable form of the smoothed soft-threshold at a fixed tau."""

    tau: float
    inner_fraction: float = INNER_FRACTION
    outer_fraction: float = OUTER_FRACTION

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")

    def __call__(self, x):
        return smoothed_soft_threshold(x, self.tau)

    def as_kernel_spec(self) -> KernelSpec:
        return KernelSpec(
            evaluator=self,
            declared_parity="odd",
            growth_note="|k(x)| <= |x|; globally Lipschitz with slope <= 1",
        )


@dataclass(frozen=True)
class SpikedModelConfig:
    """Spiked covariance Id + lambda v v^T with ||v||_0 = sparsity nonzero
    entries of value +-1/sqrt(sparsity) at uniformly random positions."""

    lam: float
    sparsity: int
    gamma: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigError(f"spike strength lambda must be > 0, got {self.lam}")
        if not self.gamma > 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.n < 2:
            raise ConfigError(f"need n >= 2, got {self.n}")
        if not 1 <= self.sparsity <= self.p:
            raise ConfigError(f"sparsity must be in [1, p={self.p}], got {self.sparsity}")

    @property
    def p(self) -> int:
        return int(round(self.gamma * self.n))

    def spike_vector(self) -> np.ndarray:
        """The unit vector v, deterministic given the seed."""
        gen = rngmod.derive_rng(self.seed, rngmod.STREAM_SPIKE_SUPPORT)
        positions = gen.choice(self.p, size=self.sparsity, replace=False)
        signs = gen.integers(0, 2, size=self.sparsity) * 2 - 1
        v = np.zeros(self.p)
        v[positions] = signs / math.sqrt(self.sparsity)
        return v


def sample_spiked_data(cfg: SpikedModelConfig, stream: int | tuple[int, ...] = 0) -> np.ndarray:
    """X (p x n) with i.i.d. columns N(0, Id + lam v v^T), generated as
    g + sqrt(lam) * w * v with independent standard normals g, w (exact
    covariance, no matrix square root needed)."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_SPIKE_COEF, stream)
    v = cfg.spike_vector()
    g = gen.standard_normal((cfg.p, cfg.n))
    w = gen.standard_normal(cfg.n)
    return g + math.sqrt(cfg.lam) * np.outer(v, w)


def thresholded_covariance(X: np.ndarray, tau: float) -> np.ndarray:
    """M_tau(X) = k_tau(sqrt(n) Sigma_hat)/sqrt(n) entrywise, including the
    diagonal (unlike the zero-diagonal kernel matrix)."""
    p, n = X.shape
    g = (X @ X.T) / math.sqrt(n)
    vals = smoothed_soft_threshold(g, tau) / math.sqrt(n)
    del g
    upper = np.triu(vals, 1)
    return upper + upper.T + np.diag(np.diag(vals))


def null_prediction(
    tau: float,
    gamma: float,
    rule: GaussHermiteRule | None = None,
) -> float:
    """Asymptotic largest eigenvalue of M_tau(X) under the null: the top
    support edge of the limit law for (a(tau), nu(tau), gamma), plus 1 for
    the preserved unit diagonal.

    The threshold kernel is odd and increasing, so a(tau) >= 0 and the top
    edge equals the spectral norm; max_edge + 1 and norm + 1 coincide.
    """
    if rule is None:
        rule = build_quadrature(200)
    a, nu = kernel_moments(ThresholdFunction(tau).as_kernel_spec(), rule)
    sup = support(LimitLawParams(a=a, nu=nu, gamma=gamma))
    return sup.max_edge + 1.0


@dataclass(frozen=True)
class SweepResult:
    """Per-tau largest-eigenvalue statistics under null and spiked
    sampling, with the analytic null prediction."""

    taus: np.ndarray
    null_mean: np.ndarray
    null_se: np.ndarray
    spiked_mean: np.ndarray
    spiked_se: np.ndarray
    prediction: np.ndarray

    CSV_COLUMNS = ("tau", "null_mean", "null_se", "spiked_mean", "spiked_se", "prediction")

    def __post_init__(self):
        k = len(self.taus)
        for name in ("null_mean", "null_se", "spiked_mean", "spiked_se", "prediction"):
            if len(getattr(self, name)) != k:
                raise ConfigError(f"SweepResult column {name} has mismatched length")
        if not np.all(np.isfinite(self.prediction)) or np.any(self.prediction <= 0):
            raise ConfigError("predictions must be finite and positive")

    def rows(self) -> list[tuple[float, ...]]:
        return [
            (
                float(self.taus[i]),
                float(self.null_mean[i]),
                float(self.null_se[i]),
                float(self.spiked_mean[i]),
                float(self.spiked_se[i]),
                float(self.prediction[i]),
            )
            for i in range(len(self.taus))
        ]


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def sweep_tau(
    null_cfg: DataMatrixConfig,
    spiked_cfg: SpikedModelConfig,
    taus: Sequence[float],
    trials: int = 5,
) -> SweepResult:
    """Mean largest eigenvalue of M_tau over trials, per tau, under both
    models, against the null prediction.  Trials are seeded by (tau index,
    trial index) so the merge order is deterministic."""
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ConfigError("tau grid must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if null_cfg.entry_law != "standard_gaussian":
        raise ConfigError("the null model of the sweep is standard Gaussian")
    rule = build_quadrature(200)
    gamma = null_cfg.p / null_cfg.n

    null_mean, null_se, spiked_mean, spiked_se, preds = [], [], [], [], []
    for ti, tau in enumerate(taus):
        nvals, svals = [], []
        for t in range(trials):
            Xn = sample_data(null_cfg, stream=(ti, t))
            nvals.append(spectrum(thresholded_covariance(Xn, tau)).lambda_max)
            Xs = sample_spiked_data(spiked_cfg, stream=(ti, t))
            svals.append(spectrum(thresholded_covariance(Xs, tau)).lambda_max)
        m, se = _mean_se(nvals)
        null_mean.append(m)
        null_se.append(se)
        m, se = _mean_se(svals)
        spiked_mean.append(m)
        spiked_se.append(se)
        preds.append(null_prediction(tau, gamma, rule))
    return SweepResult(
        taus=taus,
        null_mean=np.asarray(null_mean),
        null_se=np.asarray(null_se),
        spiked_mean=np.asarray(spiked_mean),
        spiked_se=np.asarray(spiked_se),
        prediction=np.asarray(preds),
    )
