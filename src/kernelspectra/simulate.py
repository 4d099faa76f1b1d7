"""Sampling and spectral analysis of kernel random matrices.

Covers: data-matrix sampling with symmetric entry laws, the kernel matrix
K(X) with entries k(sqrt(n) * Sigma_hat) / sqrt(n) off the diagonal, its
per-degree Hermite components, the three-scale decomposition of Hermite
polynomials of normalized sums, the rank-two spike correction for
non-odd kernels, and the deformed-GUE comparison ensemble that shares the
limit law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ConsistencyError, DomainError, SizeCapError
from .hermite import KernelSpec, _eval_on, hermite_eval
from .limit_law import LimitLawParams, density, support

MAX_MATRIX_SIDE = 12000  # p^2 doubles; keeps a single matrix under ~1.2 GB


# ---------------------------------------------------------------------------
# data sampling


@dataclass(frozen=True)
class DataMatrixConfig:
    """Shape, entry law, and seed of the data matrix X (p rows, n columns).

    Supported laws: "standard_gaussian", "symmetric_rademacher", or
    ("symmetric_discrete", values, probs).  The law must be symmetric with
    mean 0 and variance 1; the fourth moment is recorded for the spike
    prediction.
    """

    n: int
    p: int
    entry_law: object = "standard_gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.p < 2:
            raise ConfigError(f"need n, p >= 2, got n={self.n}, p={self.p}")
        if self.p > MAX_MATRIX_SIDE:
            raise SizeCapError(f"p={self.p} exceeds cap {MAX_MATRIX_SIDE}")
        self._law_spec()  # validate eagerly

    def _law_spec(self):
        law = self.entry_law
        if law in ("standard_gaussian", "symmetric_rademacher"):
            return law
        if isinstance(law, tuple) and len(law) == 3 and law[0] == "symmetric_discrete":
            values = np.asarray(law[1], dtype=float)
            probs = np.asarray(law[2], dtype=float)
            if values.shape != probs.shape or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
                raise ConfigError("symmetric_discrete needs matching values/probs summing to 1")
            mean = float(np.dot(probs, values))
            var = float(np.dot(probs, values**2))
            order = np.argsort(values)
            order_neg = np.argsort(-values)
            symmetric = np.allclose(values[order], -values[order_neg], atol=1e-12) and np.allclose(
                probs[order], probs[order_neg], atol=1e-12
            )
            if abs(mean) > 1e-12 or abs(var - 1.0) > 1e-12 or not symmetric:
                raise ConfigError(
                    f"entry law must be symmetric with mean 0 and variance 1 "
                    f"(got mean {mean:.3e}, variance {var:.6f}, symmetric={symmetric})"
                )
            return law
        raise ConfigError(f"unknown entry law {law!r}")

    @property
    def fourth_moment(self) -> float:
        law = self.entry_law
        if law == "standard_gaussian":
            return 3.0
        if law == "symmetric_rademacher":
            return 1.0
        values = np.asarray(law[1], dtype=float)
        probs = np.asarray(law[2], dtype=float)
        return float(np.dot(probs, values**4))


def sample_data(cfg: DataMatrixConfig, stream: int | tuple[int, ...] = 0) -> np.ndarray:
    """Draw X (p x n), reproducibly from cfg.seed (and an optional extra
    stream index, or tuple of indices, for independent trials)."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_DATA, stream)
    law = cfg.entry_law
    if law == "standard_gaussian":
        return gen.standard_normal((cfg.p, cfg.n))
    if law == "symmetric_rademacher":
        return gen.integers(0, 2, size=(cfg.p, cfg.n)).astype(float) * 2.0 - 1.0
    values = np.asarray(law[1], dtype=float)
    probs = np.asarray(law[2], dtype=float)
    idx = gen.choice(len(values), size=(cfg.p, cfg.n), p=probs)
    return values[idx]


# ---------------------------------------------------------------------------
# kernel matrices


@dataclass(frozen=True)
class KernelMatrixSample:
    matrix: np.ndarray
    kernel: object = None


def build_kernel_matrix(X: np.ndarray, kernel) -> KernelMatrixSample:
    """K(X)[i,i'] = k(sqrt(n) * Sigma_hat[i,i']) / sqrt(n) off-diagonal,
    exactly zero on the diagonal.  Built from the upper triangle so the
    result is exactly symmetric."""
    p, n = X.shape
    if p > MAX_MATRIX_SIDE:
        raise SizeCapError(f"p={p} exceeds cap {MAX_MATRIX_SIDE}")
    g = (X @ X.T) / math.sqrt(n)
    vals = _eval_on(kernel, g) / math.sqrt(n)
    del g
    upper = np.triu(vals, 1)
    return KernelMatrixSample(matrix=upper + upper.T, kernel=kernel)


def build_component_matrix(X: np.ndarray, d: int, a_d: float) -> KernelMatrixSample:
    """Kernel matrix for the single-degree kernel a_d * h_d."""
    if d < 1:
        raise ConfigError(f"degree must be >= 1, got {d}")
    return build_kernel_matrix(X, lambda y: a_d * hermite_eval(d, y))


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumSummary:
    eigenvalues: np.ndarray  # sorted descending

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def spectral_norm(self) -> float:
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    def esd_cdf(self, x) -> np.ndarray:
        """Empirical spectral CDF evaluated at x (scalar or array)."""
        ascending = self.eigenvalues[::-1]
        out = np.searchsorted(ascending, np.asarray(x, dtype=float), side="right") / len(ascending)
        return out if out.ndim else float(out)


def spectrum(m: np.ndarray) -> SpectrumSummary:
    """Full symmetric/Hermitian eigendecomposition, descending order."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > 1e-10 * scale:
        raise ConfigError(f"matrix is not symmetric/Hermitian (max asymmetry {asym:.3e})")
    ev = np.linalg.eigvalsh(m)
    return SpectrumSummary(eigenvalues=ev[::-1].copy())


def limit_cdf(p: LimitLawParams, xs: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """CDF of the limit law on a grid, by integrating the inverted density.

    Normalized so the last grid value is exactly 1; the grid must cover
    the support (truncation error would otherwise bias every quantile).
    """
    dg = density(p, xs, epsilon=epsilon)
    steps = np.diff(xs) * 0.5 * (dg.density[1:] + dg.density[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    total = cdf[-1]
    if total <= 0.9:
        raise ConsistencyError(f"density mass {total:.3f} on grid; grid does not cover the support")
    return cdf / total


def ks_distance(s: SpectrumSummary, p: LimitLawParams, grid_points: int = 4001) -> float:
    """Kolmogorov-Smirnov distance between the empirical spectral CDF and
    the limit law's CDF."""
    if p.is_marcenko_pastur and p.gamma > 1.0:
        raise DomainError("limit law has an atom; KS comparison undefined here")
    sup = support(p)
    lo = min(sup.min_edge, float(s.eigenvalues[-1])) - 0.5
    hi = max(sup.max_edge, float(s.eigenvalues[0])) + 0.5
    xs = np.linspace(lo, hi, grid_points)
    cdf = limit_cdf(p, xs)
    ev = np.sort(s.eigenvalues)
    fx = np.interp(ev, xs, cdf)
    k = len(ev)
    upper = np.max(np.arange(1, k + 1) / k - fx)
    lower = np.max(fx - np.arange(0, k) / k)
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# three-scale decomposition of h_d(sum z / sqrt(n))


@dataclass(frozen=True)
class HermiteSumDecomposition:
    """h_d(S) = q + r + s with S = sum(z)/sqrt(n): q is the O(1)
    distinct-index part, r the O(n^-1/2) second-order part, s the
    remainder (defined as the residual, so the identity is exact)."""

    d: int
    q: float
    r: float
    s: float
    h_value: float


def _esp_row(z: np.ndarray, kmax: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_kmax of the entries of z."""
    e = np.zeros(kmax + 1, dtype=z.dtype)
    e[0] = 1.0
    for zj in z:
        for k in range(kmax, 0, -1):
            e[k] += zj * e[k - 1]
    return e


def decompose_hermite_sum(z: Sequence[float], d: int) -> HermiteSumDecomposition:
    """Split h_d(sum(z)/sqrt(n)) into its distinct-index symmetric part q,
    the variance-correction part r, and the residual s.

    q = sqrt(d!/n^d) * e_d(z); the ordered sum over distinct d-tuples is
    d! * e_d(z).  For d >= 2,
    r = sqrt(d!)/(2 n^{d/2}) * sum_j (z_j^2 - 1) e_{d-2}(z with j removed),
    using that the ordered distinct-tuple sum with one marked slot equals
    (d-2)! times the leave-one-out symmetric polynomial; and r = 0, s = 0
    identically for d = 1 (and s = 0 for d = 2).
    """
    if d < 1:
        raise ConfigError(f"degree must be >= 1, got {d}")
    z = np.asarray(z, dtype=float)
    n = len(z)
    if n < d:
        raise SizeCapError(f"need at least d={d} samples, got n={n}")

    # compensated path: higher degrees on long vectors lose digits to
    # cancellation in the e_k recurrences
    work_dtype = np.longdouble if (n >= 10_000 and d >= 5) else np.float64
    zz = z.astype(work_dtype)

    e = _esp_row(zz, d)
    q = math.sqrt(math.factorial(d) / float(n) ** d) * float(e[d])

    if d == 1:
        r = 0.0
    else:
        kmax = d - 2
        acc = work_dtype(0.0)
        eloo = np.zeros(kmax + 1, dtype=work_dtype)
        for zj in zz:
            eloo[0] = 1.0
            for k in range(1, kmax + 1):
                eloo[k] = e[k] - zj * eloo[k - 1]
            acc += (zj * zj - 1.0) * eloo[kmax]
        r = math.sqrt(math.factorial(d)) / (2.0 * float(n) ** (d / 2.0)) * float(acc)

    h_value = float(hermite_eval(d, float(z.sum() / math.sqrt(n))))
    s = 0.0 if d == 1 else h_value - q - r
    return HermiteSumDecomposition(d=d, q=q, r=r, s=s, h_value=h_value)


# ---------------------------------------------------------------------------
# rank-two spike correction


@dataclass(frozen=True)
class SpikePrediction:
    """Asymptotic spike locations +-a2*gamma*sqrt((E[x^4]-1)/2) and the two
    nonzero eigenvalues of the realized rank-two correction matrix."""

    locations: tuple[float, ...]
    empirical: tuple[float, ...]


def rank_two_correction(X: np.ndarray, a2: float, fourth_moment: float = 3.0) -> SpikePrediction:
    """Nonzero eigenvalues of the rank-two matrix
    (a2/(n*sqrt(2))) * (v 1^T + 1 v^T), v_i = sum_j (x_ij^2 - 1)/sqrt(n),
    from its characteristic quadratic, plus the asymptotic prediction.

    With a2 = 0 the correction vanishes and no spikes are returned.
    """
    if a2 == 0.0:
        return SpikePrediction(locations=(), empirical=())
    p, n = X.shape
    gamma = p / n
    v = (X * X - 1.0).sum(axis=1) / math.sqrt(n)
    v1 = float(v.sum())
    vv = float(np.dot(v, v))
    b = a2 * math.sqrt(2.0) / n * v1
    c = a2 * a2 / (2.0 * n * n) * (v1 * v1 - p * vv)
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    roots = tuple(sorted(((b - disc) / 2.0, (b + disc) / 2.0)))
    mag = abs(a2) * gamma * math.sqrt(max(fourth_moment - 1.0, 0.0) / 2.0)
    return SpikePrediction(locations=(-mag, mag), empirical=roots)


def rank_two_matrix(X: np.ndarray, a2: float) -> np.ndarray:
    """The realized rank-two correction matrix itself (for oracle checks)."""
    p, n = X.shape
    v = (X * X - 1.0).sum(axis=1) / math.sqrt(n)
    ones = np.ones(p)
    return a2 / (n * math.sqrt(2.0)) * (np.outer(v, ones) + np.outer(ones, v))


# ---------------------------------------------------------------------------
# deformed GUE comparison model


@dataclass(frozen=True)
class DeformedModelSample:
    W: np.ndarray  # GUE, Hermitian complex
    Z: np.ndarray  # real Gaussian p x n
    V: np.ndarray  # Z Z^T with zero diagonal
    M: np.ndarray  # sqrt(gamma (nu - a^2)/p) W + (a/n) V


def sample_deformed_model(p_dim: int, n_dim: int, params: LimitLawParams, seed: int = 0) -> DeformedModelSample:
    """Scaled GUE plus a zero-diagonal Wishart sharing the limit law.

    GUE convention: diagonal entries N(0,1) real; off-diagonal real and
    imaginary parts each of variance 1/2.
    """
    if params.nu < params.a**2:
        raise ConfigError("need nu >= a^2 for a real GUE coefficient")
    gen_w = rngmod.derive_rng(seed, rngmod.STREAM_GUE)
    gen_z = rngmod.derive_rng(seed, rngmod.STREAM_WISHART)

    diag = gen_w.standard_normal(p_dim)
    re = gen_w.standard_normal((p_dim, p_dim)) / math.sqrt(2.0)
    im = gen_w.standard_normal((p_dim, p_dim)) / math.sqrt(2.0)
    upper = np.triu(re + 1j * im, 1)
    W = upper + upper.conj().T + np.diag(diag).astype(complex)

    Z = gen_z.standard_normal((p_dim, n_dim))
    V = Z @ Z.T
    np.fill_diagonal(V, 0.0)

    M = math.sqrt(params.semicircle_variance / p_dim) * W + (params.a / n_dim) * V
    return DeformedModelSample(W=W, Z=Z, V=V, M=M)


# ---------------------------------------------------------------------------
# concentration probe


def concentration_probe(
    kernel,
    aspect_ratios: Sequence[float],
    n: int,
    trials: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Empirical ||K(X)|| over max(p/n, sqrt(p/n)) across aspect ratios.

    The underlying bound holds for odd kernels only, so non-odd kernels
    are rejected.  Returns one row per ratio with the median norm and the
    normalized statistic; boundedness of the statistic across ratios is
    the checkable content.
    """
    kspec = kernel if isinstance(kernel, KernelSpec) else KernelSpec(evaluator=kernel)
    if not kspec.is_odd():
        raise ConfigError("concentration probe requires an odd kernel")
    rows = []
    for ridx, ratio in enumerate(aspect_ratios):
        p_dim = max(2, int(round(ratio * n)))
        norms = []
        for t in range(trials):
            cfg = DataMatrixConfig(n=n, p=p_dim, seed=seed)
            X = sample_data(cfg, stream=(ridx, t))
            norms.append(spectrum(build_kernel_matrix(X, kspec).matrix).spectral_norm)
        med = float(np.median(norms))
        scale = max(p_dim / n, math.sqrt(p_dim / n))
        rows.append(
            {
                "ratio": p_dim / n,
                "p": p_dim,
                "n": n,
                "median_norm": med,
                "statistic": med / scale,
            }
        )
    return rows
