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
from .errors import ConfigError, KernelSpectraError, SizeCapError
from .hermite import GaussHermiteRule, KernelSpec, build_quadrature, kernel_moments
from .limit_law import LimitLawParams, support
from .simulate import (
    DataMatrixConfig,
    _extreme_eigenvalue,
    _kernel_matrix,
    _kernel_tiles,
    _mapped_empty,
    _released_slabs,
    _upper_tiles,
    check_data_size,
    sample_data,
)

INNER_FRACTION = 0.8
OUTER_FRACTION = 1.2
# Share of the upper triangle (diagonal included) outside the threshold's
# zero set up to which sweep_tau builds M_tau sparse.  The sparse build,
# a symmetry check since dropped, and eigsh took as long as the dense tile
# pass and dsymv eigsh at 6% (p = 1000) and 6.5% (p = 2000), at n = p with
# two BLAS threads.
SPARSE_DENSITY_CUT = 0.06
# Cells of a sweep, trials x len(taus).  sweep_tau keeps two float64 tables
# of them, 16 B a cell, and the standard error of a column adds a temporary
# as long as the column: ru_maxrss gave 15.2 B a cell over 1000 taus (5e6
# to 2e7 cells) and 27 B at one tau (2e6 cells), so 5.9 GB at this cap.
MAX_SWEEP_CELLS = 5_900_000_000 // 27


@dataclass(frozen=True)
class ThresholdFunction:
    """The smoothed soft-threshold k_tau, an odd C^1 function: 0 for
    |x| <= 0.8*tau, sign(x)*(|x|-tau) for |x| >= 1.2*tau, and the unique
    slope-matching quadratic (1.25/tau)*(|x|-0.8*tau)^2 on the transition
    bands."""

    tau: float

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")

    def __call__(self, x):
        tau = self.tau
        x = np.asarray(x, dtype=float)
        out = np.abs(x, out=np.empty_like(x))
        band = np.flatnonzero((out > INNER_FRACTION * tau) & (out < OUTER_FRACTION * tau))
        quad = np.take(out, band)
        quad -= INNER_FRACTION * tau
        np.square(quad, out=quad)
        quad *= 1.25 / tau
        out -= tau
        np.maximum(out, 0.0, out=out)  # zeroes the inner zone, where |x| - tau < 0
        np.put(out, band, quad)
        np.copysign(out, x, out=out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SpikedModelConfig:
    """Spiked covariance Id + lambda v v^T with ||v||_0 = sparsity nonzero
    entries of value +-1/sqrt(sparsity) at uniformly random positions."""

    lam: float
    sparsity: int
    n: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"spike strength lambda must be finite and > 0, got {self.lam}")
        if self.n < 2 or self.p < 2:
            raise ConfigError(f"need n, p >= 2, got n={self.n}, p={self.p}")
        check_data_size(self.p, self.n)
        if not 1 <= self.sparsity <= self.p:
            raise ConfigError(f"sparsity must be in [1, p={self.p}], got {self.sparsity}")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def spike_vector(self) -> np.ndarray:
        """The unit vector v, deterministic given the seed."""
        gen = rngmod.derive_rng(self.seed, rngmod.STREAM_SPIKE_SUPPORT)
        positions = gen.choice(self.p, size=self.sparsity, replace=False)
        signs = gen.integers(0, 2, size=self.sparsity) * 2 - 1
        v = np.zeros(self.p)
        v[positions] = signs / math.sqrt(self.sparsity)
        return v


def sample_spiked_data(
    cfg: SpikedModelConfig, stream: int | tuple[int, ...] = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """X (p x n) with i.i.d. columns N(0, Id + lam v v^T), generated as
    g + sqrt(lam) * w * v with independent standard normals g, w (exact
    covariance, no matrix square root needed), into out (a C-ordered p x n
    float64 array) if given, with the same bits."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_SPIKE_COEF, stream)
    v = cfg.spike_vector()
    g = gen.standard_normal((cfg.p, cfg.n), out=out)
    w = gen.standard_normal(cfg.n)
    for r in np.flatnonzero(v):  # the spike's support; other rows stay g
        g[r] += math.sqrt(cfg.lam) * (v[r] * w)
    return g


def thresholded_covariance(X: np.ndarray, tau: float) -> np.ndarray:
    """M_tau(X) = k_tau(sqrt(n) Sigma_hat)/sqrt(n) entrywise, including the
    diagonal (unlike the zero-diagonal kernel matrix)."""
    return _kernel_matrix(X, ThresholdFunction(tau))


def _slab_gram(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """X X^T / sqrt(n) for X (p x n) on the upper triangle of out, a
    C-ordered p x p array, diagonal included, and returned.  Formed in the
    row slabs of _released_slabs, so a disposable X goes back to the OS as
    the slabs pass it: each slab is a dsyrk on its diagonal block and a
    dgemm beside it, and out also gets zeros below the diagonal of each
    diagonal block.

    scipy's BLAS, not numpy's: numpy and scipy each load their own
    OpenBLAS, with a thread pool each, and the sweep's dsymv products run
    on scipy's.  After a Gram on numpy's pool, numpy's threads still spin
    while scipy's wait for a core.  In four benchmark sweep ops (n = p =
    1000, 5 taus, 2 trials) on a 2-vCPU host, dsymv products behind numpy's
    Gram took 0.71-0.74 s, numpy's Gram and m @ v products 0.54-0.61 s, and
    scipy's dsyrk Gram with dsymv 0.41-0.45 s."""
    from scipy.linalg.blas import dgemm, dsyrk  # imported on first use, as in _thresholded_sparse

    p, n = X.shape
    s = math.sqrt(n)
    for i0, i1 in _released_slabs(X):
        # X[i0:i1].T and X[i1:].T are Fortran-ordered views, so BLAS copies
        # neither; each Fortran-ordered result is the C-ordered block's .T
        rows = X[i0:i1].T
        np.divide(dsyrk(1.0, rows, trans=1, lower=1).T, s, out=out[i0:i1, i0:i1])
        if i1 < p:
            np.divide(dgemm(1.0, X[i1:].T, rows, trans_a=1).T, s, out=out[i0:i1, i1:])
    return out


def _thresholded_sparse(g: np.ndarray, threshold: ThresholdFunction, n: int, max_entries: float):
    """M_tau of a scaled Gram g of n samples as a CSR matrix, or None as
    soon as more than max_entries entries of g's upper triangle (diagonal
    included) lie outside the threshold's zero set |g| <= INNER_FRACTION *
    tau.  The upper triangle is read in the kernel builder's tiles and the
    kept entries are mirrored, so nothing p x p is allocated; each kept
    entry gets the dense builder's bits, k_tau(g) / sqrt(n).  One value
    array fills both triangles, so the CSR is exactly symmetric, and a
    non-finite kept value raises ConfigError, as _kernel_tiles does."""
    # imported on first use: importing scipy.sparse parses SOURCE_DATE_EPOCH,
    # which the CLI must check first, and would add to the startup of every
    # command but the sweep
    from scipy.sparse import csr_array

    p = g.shape[0]
    zero_edge = INNER_FRACTION * threshold.tau
    rows, cols = [], []
    count = 0
    for i0, i1 in _upper_tiles(p):
        # "not <=" also keeps NaN, which the guard below rejects
        r, c = np.divmod(np.flatnonzero(~(np.abs(g[i0:i1, i0:]) <= zero_edge)), p - i0)
        upper = c >= r  # a tile's diagonal block reaches below the diagonal
        count += np.count_nonzero(upper)
        if count > max_entries:
            return None
        rows.append(r[upper] + i0)
        cols.append(c[upper] + i0)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.divide(threshold(g[rows, cols]), math.sqrt(n))
    if not np.isfinite(vals).all():
        raise ConfigError("kernel matrix contains non-finite entries")
    off = rows != cols
    # the mirrored lower triangle first: each row's columns then ascend, so
    # the conversion to CSR needs no sort
    return csr_array(
        (
            np.concatenate([vals[off], vals]),
            (np.concatenate([cols[off], rows]), np.concatenate([rows[off], cols])),
        ),
        shape=(p, p),
    )


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
    A tau without a null law raises the error of the law's own check, of
    the same type, with the tau in its message.
    """
    try:
        a, nu = kernel_moments(KernelSpec(evaluator=ThresholdFunction(tau)), rule)
        sup = support(LimitLawParams(a=a, nu=nu, gamma=gamma))
    except KernelSpectraError as exc:
        raise type(exc)(f"no null prediction at tau = {tau}: {exc}") from exc
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

    def columns(self) -> tuple[np.ndarray, ...]:
        """The CSV_COLUMNS, in order."""
        return (self.taus, self.null_mean, self.null_se, self.spiked_mean, self.spiked_se, self.prediction)


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def sweep_tau(model: SpikedModelConfig, taus: Sequence[float], trials: int = 5) -> SweepResult:
    """Mean largest eigenvalue of M_tau over trials, per tau, under the
    spiked model and its null, against the null prediction.

    The null model is standard Gaussian data of the spiked model's shape,
    DataMatrixConfig(n=model.n, p=model.p, seed=model.seed).  Both draw
    from the one master seed: their stream tags (STREAM_DATA for the null,
    STREAM_SPIKE_SUPPORT and STREAM_SPIKE_COEF for the spike) keep them
    apart.

    Trial t draws one null X (stream t) and one spiked X (stream t), and
    each X's scaled Gram serves every tau: common random numbers across
    the grid.  So the rows are correlated across tau, while each row's
    mean and standard error are still those of `trials` independent draws
    at that tau.  The null and spiked draws share no noise, so the pooled
    standard error sqrt(null_se^2 + spiked_se^2) of their difference holds
    per tau, and the largest z over positively correlated rows exceeds a
    given level no more often than over independent rows: reading "z > 3
    somewhere" stays conservative.

    One p x p array is held at a time.  Each X is drawn into an anonymous
    mapping of its own, which goes back to the OS as the Gram's row slabs
    pass it (_slab_gram).  The Gram fills the upper triangle of a mapped
    p x p array, and its diagonal is also kept in a vector of length p.

    Each Gram visits the taus in descending order, so the supports of
    M_tau (the entries outside the zero set |g| <= INNER_FRACTION * tau)
    only grow.  While a support holds at most SPARSE_DENSITY_CUT of the
    upper triangle, M_tau is built as a CSR matrix and its lambda_max comes
    from the same eigsh solve, run on scipy's sparse product.  The first
    support past the cut abandons its sparse build, and from there on every
    M_tau is written densely into the array's lower triangle, diagonal
    included, by the kernel tiles' divide pass, and the solve reads that
    triangle alone.  The Gram's diagonal is put back from the vector before
    each dense M_tau.  The cut is the density at which the two paths took
    equal time at p = 1000 and 2000.  The CSR holds the dense matrix's
    bits, but its product sums in another order, so lambda_max can differ
    from the dense solve's in the last bits.

    Every p x p BLAS call runs on one thread pool, scipy's: the Gram's
    slabs are scipy's dsyrk and dgemm and the dense products scipy's dsymv.
    numpy loads another OpenBLAS with its own threads, and BLAS work split
    between the two pools makes each wait on the other's spinning threads.
    """
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ConfigError("tau grid must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials * taus.size > MAX_SWEEP_CELLS:
        raise SizeCapError(f"trials * len(taus) = {trials * taus.size} exceeds cap {MAX_SWEEP_CELLS}")
    thresholds = [ThresholdFunction(tau) for tau in taus]
    rule = build_quadrature(200)
    descending = np.argsort(-taus, kind="stable")
    # before any sampling: a tau whose null law has no support fails here
    prediction = np.asarray([null_prediction(tau, model.gamma, rule) for tau in taus])

    p, n = model.p, model.n
    null = DataMatrixConfig(n=n, p=p, seed=model.seed)
    max_sparse = SPARSE_DENSITY_CUT * p * (p + 1) / 2
    null_tops = np.empty((trials, len(taus)))
    spiked_tops = np.empty((trials, len(taus)))
    for t in range(trials):
        for sampler, cfg, tops in (
            (sample_data, null, null_tops),
            (sample_spiked_data, model, spiked_tops),
        ):
            X = sampler(cfg, stream=t, out=_mapped_empty((p, n), disposable=True))
            shared = _slab_gram(X, out=_mapped_empty((p, p)))
            del X  # its pages went back to the OS as the Gram's slabs passed them
            diagonal = shared.diagonal().copy()
            dense = False  # set by the first support past the cut
            for ti in descending:
                if not dense:
                    sparse = _thresholded_sparse(shared, thresholds[ti], n, max_sparse)
                    if sparse is not None:
                        tops[t, ti] = _extreme_eigenvalue(sparse)
                        continue
                    dense = True
                # an earlier dense cell wrote its M_tau's diagonal over the Gram's
                np.fill_diagonal(shared, diagonal)
                # M_tau on the lower triangle, as the upper one of shared.T
                _kernel_tiles(shared, thresholds[ti], n, out=shared.T)
                tops[t, ti] = _extreme_eigenvalue(shared.T)
            del shared
    null_mean, null_se = np.array([_mean_se(col) for col in null_tops.T]).T
    spiked_mean, spiked_se = np.array([_mean_se(col) for col in spiked_tops.T]).T
    return SweepResult(
        taus=taus,
        null_mean=null_mean,
        null_se=null_se,
        spiked_mean=spiked_mean,
        spiked_se=spiked_se,
        prediction=prediction,
    )
