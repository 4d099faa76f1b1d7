"""Covariance thresholding for sparse-spike detection.

Data columns are N(0, Id + lambda v v^T) with a sparse unit vector v; the
sample covariance is entrywise thresholded at scale tau/sqrt(n) via a
smoothed soft-threshold, and the largest eigenvalue of the result is
compared against the analytic null prediction ||mu|| + 1 over a tau grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, DomainError, KernelSpectraError, SizeCapError
from .hermite import KernelExpansion, _hermite_sweep, kernel_moments
from .limit_law import LimitLawParams, support
from .simulate import (
    DataMatrixConfig,
    _assembled,
    _column_blocks,
    _data_blocks,
    _extreme_eigenvalue,
    _kernel_matrix,
    _kernel_tiles,
    _non_finite_error,
    _scaled_gram,
    _upper_tiles,
)

INNER_FRACTION = 0.8
OUTER_FRACTION = 1.2
# Share of the upper triangle (diagonal included) outside the threshold's
# zero set up to which sweep_tau builds M_tau sparse.  The sparse build and
# its Lanczos solve on np.bincount products took as long as the dense tile
# pass and the dsymv solve at 2%, at n = p = 1000 and 2000 with two BLAS
# threads: a bincount product costs 7-10 ns a kept upper entry, against
# 85 us (p = 1000) and 430 us (p = 2000) for dsymv.
SPARSE_DENSITY_CUT = 0.02
# Cells of a sweep, trials x len(taus).  sweep_tau keeps two float64 tables
# of them, 16 B a cell, and the standard error of a column adds a temporary
# as long as the column: ru_maxrss gave 15.2 B a cell over 1000 taus (5e6
# to 2e7 cells) and 27 B at one tau (2e6 cells), so 5.9 GB at this cap.
MAX_SWEEP_CELLS = 5_900_000_000 // 27
# Triplets per block of a sparse cell's threshold pass and of its
# product's np.bincount calls, whose temporaries stay near 0.3 MB: 2**16
# took twice as long a product at p = n = 3000 (87k triplets), and held
# 1 MB more
_TRIPLET_BLOCK = 2**14
# J differences from band start u = _J_SPLIT on; J_n by a continued fraction
# of _CF_TERMS terms from y = _CF_FROM on (3e-16; upward lost 1e-12 near 3)
_J_SPLIT, _CF_FROM, _CF_TERMS = 3.0, 1.0, 400


def _gaussian(x: float) -> float:
    """phi(x) to a few ulp at x >= 0, where exp(-x^2/2) has condition number
    x^2: x = hi + lo with a 26-bit hi, whose square is exact (0 from 39 on)."""
    x = min(x, 39.0)
    m, e = math.frexp(x)
    hi = math.ldexp(math.floor(math.ldexp(m, 26)), e - 26)
    return math.exp(-0.5 * hi * hi) * math.exp(-0.5 * (x - hi) * (x + hi)) / math.sqrt(2.0 * math.pi)


def _tail_moments(y: float, top: int) -> list[float]:
    """J_n(y) = int_0^inf t^n exp(-y t - t^2/2) dt = int_y^inf (x - y)^n phi / phi(y),
    n <= top, y >= 0: below _CF_FROM by erfc and J_{n+1} = n J_{n-1} - y J_n (J_1 =
    1 - y J_0), from it on by r_n = J_n / J_{n-1} = n / (y + r_{n+1}), J_0 = 1 / (y + r_1)."""
    if y < _CF_FROM:
        j = [math.sqrt(0.5 * math.pi) * math.exp(0.5 * y * y) * math.erfc(y / math.sqrt(2.0))]
        for n in range(top):
            j.append((n * j[n - 1] if n else 1.0) - y * j[n])
        return j
    r = [0.0] * (_CF_TERMS + 2)
    for n in range(_CF_TERMS, 0, -1):
        r[n] = n / (y + r[n + 1])
    return np.cumprod([1.0 / (y + r[1])] + r[1:top + 1]).tolist()


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 30-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(30)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _per_tau(k: float, x, tau: float):
    """(k / tau) * x, or k * (x / tau) where k / tau overflows (tau below
    about 1e-308): there x, a band integral or a square on the band, is of
    order tau^2 or less, so the product is of order tau, not inf or
    inf * 0.  x is a float or an array; tau is read as a Python float,
    whose division overflows to inf without a warning."""
    tau = float(tau)
    scale = k / tau
    return scale * x if scale < math.inf else k * (x / tau)


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
        quad = _per_tau(1.25, quad, tau)
        out -= tau
        np.maximum(out, 0.0, out=out)  # zeroes the inner zone, where |x| - tau < 0
        np.put(out, band, quad)
        np.copysign(out, x, out=out)
        return out if out.ndim else float(out)

    def expansion(self, degree: int) -> KernelExpansion:
        """a_1..a_degree and nu = E[k_tau(xi)^2] in closed form.  With u, v
        the breakpoints as the evaluator rounds them, w = v - u, c = v - tau
        (both exact), B_n = int_u^v (x - u)^n phi and I_m = int_u^v h_m phi:

            a = E[k_tau'] = 2 ((2.5/tau) B_1 + phi(v) J_0(v)),
            nu = 2 ((1.25/tau)^2 B_4 + phi(v) (J_2 + 2c J_1 + c^2 J_0)(v)),
            a_d = (5/tau) I_{d-2} / sqrt(d (d-1)) for odd d >= 3, else 0,

        the last by Stein's identity E[f h_d] = E[f' h_{d-1}] / sqrt(d) twice,
        k_tau'' being 2.5/tau on (u, v), 0 elsewhere on x > 0.  From u = _J_SPLIT
        on, B_n = phi(u) J_n(u) - phi(v) sum_k C(n, k) w^(n-k) J_k(v) and
        I_m = ((h_{m-1} phi)(u) - (h_{m-1} phi)(v)) / sqrt(m); below, where these
        cancel, a 30-point Gauss-Legendre rule on [u, v] (w < 1.5) gives both to
        rounding through h_MAX_DEGREE.  A nu below the normal doubles (past
        tau = 46.3) raises DomainError."""
        tau = float(self.tau)  # Python floats: past double range they raise no warning
        u, v = INNER_FRACTION * tau, OUTER_FRACTION * tau
        w, c = v - u, v - tau
        fu, fv, jv = _gaussian(u), _gaussian(v), _tail_moments(v, 4)
        if u < _J_SPLIT:
            s, g = _legendre_rule()
            x = u + w * s
            band = (w / math.sqrt(2.0 * math.pi)) * g * np.exp(-0.5 * x * x)
            b1, b4 = float(band @ (w * s)), float(band @ (w * s) ** 4)
            integrals = enumerate(float(band @ h) for h in _hermite_sweep(x, degree - 2))
        else:  # the generators run only past the check on nu below
            ju = _tail_moments(u, 4)
            tail4 = jv[4] + w * (4 * jv[3] + w * (6 * jv[2] + w * (4 * jv[1] + w * jv[0])))
            b1, b4 = fu * ju[1] - fv * (jv[1] + w * jv[0]), fu * ju[4] - fv * tail4
            ends = enumerate(_hermite_sweep(np.array([u, v]), degree - 3), 1)
            integrals = ((m, (h[0] * fu - h[1] * fv) / math.sqrt(m)) for m, h in ends)
        a = 2.0 * (_per_tau(2.5, b1, tau) + fv * jv[0])
        tail = fv * (jv[2] + c * (2.0 * jv[1] + c * jv[0]))
        nu = 2.0 * (_per_tau(1.25, _per_tau(1.25, b4, tau), tau) + tail)
        if not nu >= np.finfo(float).tiny:
            raise DomainError(f"E[k_tau(xi)^2] underflows double precision at tau = {tau}")
        coeffs = np.array([a] + [0.0] * (degree - 1))
        for m, integral in integrals:
            if m % 2 and m + 2 <= degree:
                coeffs[m + 1] = _per_tau(5.0, integral, tau) / math.sqrt((m + 2) * (m + 1))
        return KernelExpansion(coefficients=coeffs, nu=nu)


@dataclass(frozen=True)
class SpikedModelConfig:
    """Spiked covariance Id + lambda v v^T with ||v||_0 = sparsity nonzero
    entries of value +-1/sqrt(sparsity) at uniformly random positions.
    `null` is its null model, whose construction checks the shape."""

    lam: float
    sparsity: int
    n: int
    p: int
    seed: int = 0
    null: DataMatrixConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"spike strength lambda must be finite and > 0, got {self.lam}")
        object.__setattr__(self, "null", DataMatrixConfig(n=self.n, p=self.p, seed=self.seed))
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


def _spiked_blocks(cfg: SpikedModelConfig, stream: int | tuple[int, ...] = 0):
    """The _column_blocks of a spiked X (see sample_spiked_data), drawn one
    after the other from one stream: each a new C-ordered (w, p) float64
    array of w samples, for which the stream gives the normals g of the
    block, then the w normals w of its samples.  The generator holds no
    block while it draws the next."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_SPIKE_COEF, stream)
    v = cfg.spike_vector()
    support = np.flatnonzero(v)  # the spike's columns; the others stay g
    for j0, j1 in _column_blocks(cfg.p, cfg.n):
        g = gen.standard_normal((j1 - j0, cfg.p))
        w = gen.standard_normal(j1 - j0)
        g[:, support] += math.sqrt(cfg.lam) * (w[:, None] * v[support])
        yield g
        del g


def sample_spiked_data(cfg: SpikedModelConfig, stream: int | tuple[int, ...] = 0) -> np.ndarray:
    """X (p x n) with i.i.d. columns N(0, Id + lam v v^T), generated as
    g + sqrt(lam) * w * v with independent standard normals g, w (exact
    covariance, no matrix square root needed): the blocks of
    _spiked_blocks, assembled."""
    return _assembled(_spiked_blocks(cfg, stream), cfg.p, cfg.n)


def thresholded_covariance(X: np.ndarray, tau: float) -> np.ndarray:
    """M_tau(X) = k_tau(sqrt(n) Sigma_hat)/sqrt(n) entrywise, including the
    diagonal (unlike the zero-diagonal kernel matrix)."""
    return _kernel_matrix(X, ThresholdFunction(tau))


@dataclass(frozen=True)
class _SparseSymmetric:
    """A symmetric p x p matrix from its diagonal and the non-zero entries
    of its strict upper triangle, (rows[i], cols[i], values[i]) with
    rows < cols, in row order.  Its product v -> m v sums the triplets
    with np.bincount, in blocks of _TRIPLET_BLOCK triplets, so that the
    product's temporaries (the gathered v, and bincount's int64 copy of
    the int32 indices) stay small beside the 16 B a triplet holds."""

    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diagonal), len(self.diagonal))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        p = len(self.diagonal)
        y = self.diagonal * v
        for b0 in range(0, len(self.values), _TRIPLET_BLOCK):
            block = slice(b0, b0 + _TRIPLET_BLOCK)
            rows, cols, values = self.rows[block], self.cols[block], self.values[block]
            y += np.bincount(rows, weights=np.take(v, cols) * values, minlength=p)
            y += np.bincount(cols, weights=np.take(v, rows) * values, minlength=p)
        return y


def _thresholded_sparse(g: np.ndarray, threshold: ThresholdFunction, n: int, max_entries: float):
    """M_tau of a scaled Gram g of n samples as a _SparseSymmetric, or None
    as soon as more than max_entries entries of g's upper triangle
    (diagonal included) lie outside the threshold's zero set |g| <=
    INNER_FRACTION * tau.  Only g's upper triangle is read, in the kernel
    builder's tiles, and each tile's kept entries go straight into int32
    index and float64 value arrays of max_entries capacity, whose pages
    are touched only as they fill, so nothing p x p is allocated; k_tau
    then runs on the kept values in blocks of _TRIPLET_BLOCK.  Each kept
    entry gets the dense builder's bits, k_tau(g) / sqrt(n), and a
    non-finite kept value raises _kernel_tiles' ConfigError, which names
    the Gram where g is itself not finite."""
    p = g.shape[0]
    s = math.sqrt(n)
    zero_edge = INNER_FRACTION * threshold.tau
    diagonal = np.divide(threshold(g.diagonal()), s)
    # "not <=" also keeps NaN, which the check at the end rejects
    count = np.count_nonzero(~(np.abs(g.diagonal()) <= zero_edge))
    capacity = int(min(max_entries - count, p * (p - 1) // 2))
    if capacity < 0:
        return None
    rows, cols = np.empty(capacity, np.int32), np.empty(capacity, np.int32)
    values = np.empty(capacity)
    kept = 0
    for i0, i1 in _upper_tiles(p):
        tile = g[i0:i1, i0:]
        r, c = np.divmod(np.flatnonzero(~(np.abs(tile) <= zero_edge)), p - i0)
        strict = c > r  # a tile's diagonal block reaches the diagonal and below
        r, c = r[strict], c[strict]
        end = kept + len(r)
        if end > capacity:
            return None
        np.add(r, i0, out=rows[kept:end], casting="unsafe")
        np.add(c, i0, out=cols[kept:end], casting="unsafe")
        values[kept:end] = tile[r, c]
        kept = end
    for b0 in range(0, kept, _TRIPLET_BLOCK):
        block = values[b0:min(kept, b0 + _TRIPLET_BLOCK)]
        np.divide(threshold(block), s, out=block)
    if not (np.isfinite(diagonal).all() and np.isfinite(values[:kept]).all()):
        # a non-finite entry of g is kept, so the kept entries tell whether g is
        raise _non_finite_error(np.concatenate((g.diagonal(), g[rows[:kept], cols[:kept]])))
    return _SparseSymmetric(diagonal, rows[:kept], cols[:kept], values[:kept])


def null_prediction(tau: float, gamma: float) -> float:
    """Asymptotic largest eigenvalue of M_tau(X) under the null: the top
    support edge of the limit law for (a(tau), nu(tau), gamma), plus 1 for
    the preserved unit diagonal.

    The threshold kernel is odd and increasing, so a(tau) >= 0 and the top
    edge equals the spectral norm; max_edge + 1 and norm + 1 coincide.
    A tau without a null law raises the error of the law's own check, of
    the same type, with the tau in its message.
    """
    try:
        a, nu = kernel_moments(ThresholdFunction(tau))
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
        for name, column in zip(self.CSV_COLUMNS, self.columns()):
            if len(column) != len(self.taus):
                raise ConfigError(f"SweepResult column {name} has mismatched length")
            if not np.all(np.isfinite(column)):
                raise DomainError(f"SweepResult column {name} is not finite")
        if np.any(self.prediction <= 0):
            raise ConfigError("predictions must be positive")

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
    model.null = DataMatrixConfig(n=model.n, p=model.p, seed=model.seed).  Both draw
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

    One p x p array is held at a time, and X never is.  X is drawn in
    blocks of samples, each of which adds its share to the Gram's upper
    triangle in a mapped p x p array as it comes (simulate._scaled_gram,
    the product simulate's kernel matrix is built from), and the Gram's
    diagonal is also kept in a vector of length p.  The array keeps its
    huge pages: its lower triangle takes the dense M_tau.

    Each Gram visits the taus in descending order, so the supports of
    M_tau (the entries outside the zero set |g| <= INNER_FRACTION * tau)
    only grow.  While a support holds at most SPARSE_DENSITY_CUT of the
    upper triangle, M_tau is built sparse, as its diagonal and its strict
    upper triangle's (row, col, value) triplets, and its lambda_max comes
    from the same Lanczos solve, run on np.bincount products.  The first
    support past the cut abandons its sparse build, and from there on every
    M_tau is written densely into the array's lower triangle, diagonal
    included, by the kernel tiles' divide pass, and the solve reads that
    triangle alone.  The Gram's diagonal is put back from the vector before
    each dense M_tau.  The cut is the density at which the two paths took
    equal time at p = 1000 and 2000.  The sparse cell holds the dense
    matrix's bits, but its product sums in another order, so lambda_max
    can differ from the dense solve's in the last bits.

    Every BLAS call runs on numpy's OpenBLAS and its one thread pool: the
    Gram's blocks are its cblas_dsyrk, and the dense solve's products are
    cblas_dsymv from the same library.  No scipy module is imported.
    """
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ConfigError("tau grid must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials * taus.size > MAX_SWEEP_CELLS:
        raise SizeCapError(f"trials * len(taus) = {trials * taus.size} exceeds cap {MAX_SWEEP_CELLS}")
    thresholds = [ThresholdFunction(tau) for tau in taus]
    descending = np.argsort(-taus, kind="stable")
    # before any sampling: a tau whose null law has no support fails here
    prediction = np.asarray([null_prediction(tau, model.gamma) for tau in taus])

    p, n = model.p, model.n
    max_sparse = SPARSE_DENSITY_CUT * p * (p + 1) / 2
    null_tops = np.empty((trials, len(taus)))
    spiked_tops = np.empty((trials, len(taus)))
    for t in range(trials):
        for sampler, cfg, tops in (
            (_data_blocks, model.null, null_tops),
            (_spiked_blocks, model, spiked_tops),
        ):
            shared = _scaled_gram(sampler(cfg, stream=t), p, n)
            diagonal = shared.diagonal().copy()
            dense = False  # set by the first support past the cut
            for ti in descending:
                if not dense:
                    sparse = _thresholded_sparse(shared, thresholds[ti], n, max_sparse)
                    if sparse is not None:
                        tops[t, ti] = _extreme_eigenvalue(sparse)
                        sparse = None  # not held while the next cell is built
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
