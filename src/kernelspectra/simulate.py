"""Sampling and spectral analysis of kernel random matrices.

Covers: data-matrix sampling with symmetric entry laws, the kernel matrix
K(X) with entries k(sqrt(n) * Sigma_hat) / sqrt(n) off the diagonal, the
three-scale decomposition of Hermite polynomials of normalized sums, the
rank-two spike correction for non-odd kernels, and the deformed-GUE
comparison ensemble that shares the limit law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ConsistencyError, DomainError, SizeCapError
from .hermite import KernelSpec, _eval_on, hermite_eval
from .limit_law import LimitLawParams, cdf

# Peak RSS of build_kernel_matrix + spectrum, measured with ru_maxrss in a
# fresh process at p = 1500 and 3000: 40 MB + 8 B * (2.3 p^2 + p n), i.e.
# 2.3 p x p float64 arrays besides X: the kernel matrix, which is written
# into the Gram in place, and the eigensolver's copy of it.  At n = p and
# this cap that is 5.8 GB, which leaves about 1 GB of a 7 GB host to
# everything else.
MAX_MATRIX_SIDE = 14800
# Entries of X.  Drawing X peaks at 16 B per entry, for sample_data plus
# rank_two_correction and for sample_spiked_data at sparsity = p alike
# (ru_maxrss at p = 2, n = 5e6 and 1e7), so 3.6 GB at this cap; and with
# p <= MAX_MATRIX_SIDE the build's 2.3 p^2 + p n arrays stay within 5.9 GB.
MAX_DATA_ENTRIES = 228_000_000


def check_data_size(p: int, n: int) -> None:
    """SizeCapError unless a p x n data matrix is within both caps."""
    if p > MAX_MATRIX_SIDE:
        raise SizeCapError(f"p={p} exceeds cap {MAX_MATRIX_SIDE}")
    if p * n > MAX_DATA_ENTRIES:
        raise SizeCapError(f"p * n = {p * n} data entries exceeds cap {MAX_DATA_ENTRIES}")


# ---------------------------------------------------------------------------
# data sampling


@dataclass(frozen=True)
class EntryLaw:
    """Law of the i.i.d. entries of X, parsed from its spec:
    "standard_gaussian", "symmetric_rademacher", or
    ("symmetric_discrete", values, probs).  The law must be symmetric with
    mean 0 and variance 1."""

    spec: object = "standard_gaussian"

    def __post_init__(self):
        spec = self.spec
        if spec in ("standard_gaussian", "symmetric_rademacher"):
            return
        if not (isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "symmetric_discrete"):
            raise ConfigError(f"unknown entry law {spec!r}")
        values, probs = self._atoms()
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

    def _atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.spec[1], dtype=float), np.asarray(self.spec[2], dtype=float)

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        """An array of the given shape of i.i.d. draws from gen."""
        if self.spec == "standard_gaussian":
            return gen.standard_normal(shape)
        if self.spec == "symmetric_rademacher":
            return gen.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
        values, probs = self._atoms()
        return values[gen.choice(len(values), size=shape, p=probs)]

    def moment(self, k: int) -> float:
        """E[x^k] for an integer k >= 0; exactly 0.0 for odd k, since every
        law here is symmetric."""
        if k < 0:
            raise ConfigError(f"moment order must be >= 0, got {k}")
        if k % 2:
            return 0.0
        if self.spec == "standard_gaussian":
            return float(math.prod(range(k - 1, 0, -2)))  # (k-1)!!
        if self.spec == "symmetric_rademacher":
            return 1.0
        values, probs = self._atoms()
        return float(np.dot(probs, values**k))


@dataclass(frozen=True)
class DataMatrixConfig:
    """Shape, entry law, and seed of the data matrix X (p rows, n columns).

    `entry_law` is an EntryLaw spec, validated on construction; the parsed
    law is `law`, whose fourth moment is recorded for the spike prediction.
    """

    n: int
    p: int
    entry_law: object = "standard_gaussian"
    seed: int = 0
    law: EntryLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2 or self.p < 2:
            raise ConfigError(f"need n, p >= 2, got n={self.n}, p={self.p}")
        check_data_size(self.p, self.n)
        object.__setattr__(self, "law", EntryLaw(self.entry_law))

    @property
    def fourth_moment(self) -> float:
        return self.law.moment(4)


def sample_data(cfg: DataMatrixConfig, stream: int | tuple[int, ...] = 0) -> np.ndarray:
    """Draw X (p x n), reproducibly from cfg.seed (and an optional extra
    stream index, or tuple of indices, for independent trials)."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_DATA, stream)
    return cfg.law.sample(gen, (cfg.p, cfg.n))


# ---------------------------------------------------------------------------
# kernel matrices


_SLAB_ROWS = 256  # rows per block in the blocked passes over a p x p matrix
# Gram entries per kernel tile: the Hermite sweep's buffers for one tile
# stay in cache (8192 and 131072 were slower at n = p = 2000).
_TILE_ENTRIES = 32768


def _scaled_gram(X: np.ndarray) -> np.ndarray:
    """sqrt(n) * Sigma_hat = X X^T / sqrt(n), scaled in place."""
    p, n = X.shape
    if p > MAX_MATRIX_SIDE:
        raise SizeCapError(f"p={p} exceeds cap {MAX_MATRIX_SIDE}")
    g = X @ X.T
    g /= math.sqrt(n)
    return g


def _upper_tiles(p: int):
    """(i0, i1) of the row slabs [i0:i1, i0:] of about _TILE_ENTRIES
    entries that cover the upper triangle of a p x p matrix, each row
    once."""
    i0 = 0
    while i0 < p:
        i1 = min(p, i0 + max(1, _TILE_ENTRIES // (p - i0)))
        yield i0, i1
        i0 = i1


def _kernel_tiles(g: np.ndarray, kernel, n: int, out: np.ndarray) -> np.ndarray:
    """k(g) / sqrt(n) entrywise on the upper triangle of a scaled Gram g of
    n samples, written into out (g itself, or a p x p buffer that keeps g
    intact for the next kernel) and returned.  The kernel runs on row slabs
    g[i0:i1, i0:] of about _TILE_ENTRIES entries, so out also gets the part
    of each slab's diagonal block below the diagonal, and the rest of its
    lower triangle is left as it was: only the upper triangle is k(g) /
    sqrt(n), and a reader of it needs g's upper triangle only.  A non-finite
    entry raises ConfigError.  Each tile's quotient is written into out,
    never into the kernel's result, so a kernel that returns its input or a
    view of it leaves g intact when out is a separate buffer; when out is g,
    numpy buffers the overlap."""
    s = math.sqrt(n)
    for i0, i1 in _upper_tiles(g.shape[0]):
        tile = np.divide(_eval_on(kernel, g[i0:i1, i0:]), s, out=out[i0:i1, i0:])
        if not np.isfinite(tile).all():
            raise ConfigError("kernel matrix contains non-finite entries")
    return out


def _kernel_matrix(X: np.ndarray, kernel) -> np.ndarray:
    """k(sqrt(n) * Sigma_hat) / sqrt(n) entrywise, exactly symmetric, the
    diagonal included.  The kernel is written into the Gram in place, on
    its upper triangle (_kernel_tiles), which is then mirrored into the
    lower one, so the build holds one p x p array."""
    g = _scaled_gram(X)
    _kernel_tiles(g, kernel, X.shape[1], out=g)
    p = g.shape[0]
    for i0 in range(0, p, _SLAB_ROWS):
        i1 = min(i0 + _SLAB_ROWS, p)
        g[i0:i1, :i0] = g[:i0, i0:i1].T
        block = g[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
    g += 0.0  # -0.0 -> +0.0, as the sum of the two triangles gave
    return g


def build_kernel_matrix(X: np.ndarray, kernel) -> np.ndarray:
    """K(X)[i,i'] = k(sqrt(n) * Sigma_hat[i,i']) / sqrt(n) off-diagonal,
    exactly zero on the diagonal.  Built from the upper triangle so the
    result is exactly symmetric."""
    K = _kernel_matrix(X, kernel)
    np.fill_diagonal(K, 0.0)
    return K


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


SYMMETRY_RTOL = 1e-10  # largest asymmetry spectrum accepts, relative to max|m|


def _checked_hermitian(m) -> np.ndarray:
    """m as an array, after spectrum's checks of a caller's matrix: square,
    finite, and symmetric/Hermitian to 1e-10 of its largest entry.  Works
    in row slabs, comparing each slab's upper part with its mirror, so it
    allocates no p x p temporary."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ConfigError(f"expected a non-empty square matrix, got shape {m.shape}")
    p = m.shape[0]
    hermitian = np.iscomplexobj(m)
    scale, asym = 1.0, 0.0
    for i0 in range(0, p, _SLAB_ROWS):
        i1 = min(i0 + _SLAB_ROWS, p)
        slab_max = float(np.max(np.abs(m[i0:i1])))
        if not math.isfinite(slab_max):
            raise ConfigError("matrix contains non-finite entries")
        scale = max(scale, slab_max)
        mirror = m[i0:, i0:i1].T
        diff = m[i0:i1, i0:] - (mirror.conj() if hermitian else mirror)
        asym = max(asym, float(np.max(np.abs(diff))))
    if asym > SYMMETRY_RTOL * scale:
        raise ConfigError(f"matrix is not symmetric/Hermitian (max asymmetry {asym:.3e})")
    return m


def spectrum(m: np.ndarray) -> SpectrumSummary:
    """Full symmetric/Hermitian eigendecomposition, descending order."""
    ev = np.linalg.eigvalsh(_checked_hermitian(m))
    return SpectrumSummary(eigenvalues=ev[::-1].copy())


# Restarts allowed to one ARPACK solve (eigsh's maxiter): about 10 products
# each at the default ncv of 20, so about 3000 products.  The sweep's and
# the probe's solves at n = p = 1000 and p <= 2000 needed at most 12.
ARPACK_MAX_RESTARTS = 300


def _extreme_eigenvalue(m, which: str) -> float:
    """The largest ("LA") or the largest-magnitude ("LM") eigenvalue of a
    finite real symmetric m, dense or scipy.sparse: the sweep's M_tau cells
    and the probe's K, which their builders make finite and symmetric, so
    m is not checked here.  A dense m is read on its upper triangle only,
    so its lower one may hold anything.

    ARPACK's implicitly restarted Lanczos (scipy.sparse.linalg.eigsh),
    started from a fixed Gaussian vector, so runs repeat: an all-ones start
    would be orthogonal to balanced +-1 spikes.  It stops when the Ritz
    value's residual is at most machine epsilon times |Ritz value|.  A stop
    on residual^2 / gap would come earlier, but returns the second
    eigenvalue when the top two are closer than the Krylov space resolves
    and the start vector has the smaller part along the top one.  A solve
    that runs out of restarts, or that ARPACK rejects, raises
    ConsistencyError rather than returning an unconverged value.

    A dense m's products are BLAS dsymv calls on that triangle, which
    read half the matrix: a median 0.08 ms against 0.18 ms for m @ v at
    p = 1000, and 0.39 ms against 0.74 ms at p = 2000, with two BLAS
    threads on a 2-vCPU Xeon.  They run on scipy's BLAS, whose thread pool
    is not numpy's (see sparse_pca.sweep_tau).
    """
    # imported on first use: of the CLI commands only the sweep gets here,
    # and importing scipy would add to every other command's startup
    from scipy.linalg.blas import dsymv
    from scipy.sparse import issparse
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    p = m.shape[0]
    if p <= 2:  # eigsh needs k = 1 < p
        ev = np.linalg.eigvalsh(m.toarray() if issparse(m) else m, UPLO="U")
        return float(ev[-1] if which == "LA" else ev[np.argmax(np.abs(ev))])
    op = m
    if isinstance(m, np.ndarray):
        # m's upper triangle is the lower one of m.T, which for a C-ordered
        # float64 m is a Fortran-ordered view: dsymv copies nothing
        upper = np.asfortranarray(m.T, dtype=np.float64)
        op = LinearOperator(
            m.shape, matvec=lambda v: dsymv(1.0, upper, v, lower=1), dtype=np.float64
        )
    start = rngmod.derive_rng(0, rngmod.STREAM_LANCZOS, p).standard_normal(p)
    try:
        ev = eigsh(
            op, k=1, which=which, v0=start, tol=0, maxiter=ARPACK_MAX_RESTARTS,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise ConsistencyError(
            f"ARPACK did not converge in {ARPACK_MAX_RESTARTS} restarts at p={p}"
        ) from exc
    except ArpackError as exc:
        # the zero matrix maps every vector to 0, which ARPACK reports as
        # error -9, a zero starting vector; checked only here, off the
        # path of every converged solve, and on m, not on its operator
        if not (m.count_nonzero() if issparse(m) else np.count_nonzero(np.triu(m))):
            return 0.0
        raise ConsistencyError(f"ARPACK failed at p={p}: {exc}") from exc
    return float(ev[0])


def ks_distance(s: SpectrumSummary, p: LimitLawParams) -> float:
    """Kolmogorov-Smirnov distance between the empirical spectral CDF and
    the limit law's CDF, evaluated in closed form at the eigenvalues."""
    if p.is_marcenko_pastur and p.gamma > 1.0:
        raise DomainError("limit law has an atom; KS comparison undefined here")
    fx = cdf(p, np.sort(s.eigenvalues))
    k = len(fx)
    upper = np.max(np.arange(1, k + 1) / k - fx)
    lower = np.max(fx - np.arange(0, k) / k)
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# three-scale decomposition of h_d(sum z / sqrt(n))


@dataclass(frozen=True)
class HermiteSumDecomposition:
    """h_d(S) = q + r + s with S = sum(z)/sqrt(n): q is the O(1)
    distinct-index part, r the O(n^-1/2) second-order part, s the
    remainder (defined as the residual, so the identity is exact).  Each
    field is a float for one z, or an array of the batch shape."""

    d: int
    q: float | np.ndarray
    r: float | np.ndarray
    s: float | np.ndarray
    h_value: float | np.ndarray


def elementary_symmetric(
    terms, kmax: int, shape: tuple[int, ...] = (), dtype=np.float64
) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_kmax of the terms z_j, by the
    recurrence e_k += z_j e_{k-1}.  The terms are the first axis of an
    array, or any iterable of arrays of the given shape (so the caller need
    not hold all of them at once); e[k] has that shape."""
    e = np.zeros((kmax + 1, *shape), dtype=dtype)
    e[0] = 1.0
    for zj in terms:
        for k in range(kmax, 0, -1):
            e[k] += zj * e[k - 1]
    return e


def decompose_hermite_sum(z: Sequence[float] | np.ndarray, d: int) -> HermiteSumDecomposition:
    """Split h_d(sum(z)/sqrt(n)) into its distinct-index symmetric part q,
    the variance-correction part r, and the residual s.

    q = sqrt(d!/n^d) * e_d(z); the ordered sum over distinct d-tuples is
    d! * e_d(z).  For d >= 2,
    r = sqrt(d!)/(2 n^{d/2}) * sum_j (z_j^2 - 1) e_{d-2}(z with j removed),
    using that the ordered distinct-tuple sum with one marked slot equals
    (d-2)! times the leave-one-out symmetric polynomial; and r = 0, s = 0
    identically for d = 1 (and s = 0 for d = 2).

    z has shape (..., n): the leading axes are a batch, and every field of
    the result has the batch shape (floats for a 1-D z).  The loops over
    the n samples run once for the whole batch, and each batch entry sees
    exactly the floating-point operations of its own 1-D call.
    """
    if d < 1:
        raise ConfigError(f"degree must be >= 1, got {d}")
    z = np.asarray(z, dtype=float)
    if z.ndim < 1:
        raise ConfigError("z needs an axis of samples, got a scalar")
    z = np.ascontiguousarray(z)  # rows sum in the same order as 1-D calls
    *batch, n = z.shape
    if n < d:
        raise SizeCapError(f"need at least d={d} samples, got n={n}")

    # compensated path: higher degrees on long vectors lose digits to
    # cancellation in the e_k recurrences
    work_dtype = np.longdouble if (n >= 10_000 and d >= 5) else np.float64
    zz = np.ascontiguousarray(np.moveaxis(z, -1, 0), dtype=work_dtype)  # samples first

    e = elementary_symmetric(zz, d, shape=tuple(batch), dtype=work_dtype)
    q = math.sqrt(math.factorial(d) / float(n) ** d) * e[d].astype(float)

    if d == 1:
        r = np.zeros(batch)
    else:
        kmax = d - 2
        acc = np.zeros(batch, dtype=work_dtype)
        eloo = np.zeros((kmax + 1, *batch), dtype=work_dtype)
        for zj in zz:
            eloo[0] = 1.0
            for k in range(1, kmax + 1):
                eloo[k] = e[k] - zj * eloo[k - 1]
            acc += (zj * zj - 1.0) * eloo[kmax]
        r = math.sqrt(math.factorial(d)) / (2.0 * float(n) ** (d / 2.0)) * acc.astype(float)

    h_value = np.asarray(hermite_eval(d, z.sum(axis=-1) / math.sqrt(n)))
    s = np.zeros(batch) if d == 1 else h_value - q - r
    if not batch:
        q, r, s, h_value = float(q), float(r), float(s), float(h_value)
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
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not all(0 < ratio < math.inf for ratio in aspect_ratios):
        raise ConfigError(f"aspect ratios must be finite and > 0, got {list(aspect_ratios)}")
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
            # the builder's kernel matrix is finite and exactly symmetric
            K = build_kernel_matrix(X, kspec)
            norms.append(abs(_extreme_eigenvalue(K, "LM")))
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
