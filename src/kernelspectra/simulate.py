"""Sampling and spectral analysis of kernel random matrices.

Covers: data-matrix sampling with symmetric entry laws, the kernel matrix
K(X) with entries k(sqrt(n) * Sigma_hat) / sqrt(n) off the diagonal, the
three-scale decomposition of Hermite polynomials of normalized sums, and
the rank-two spike correction for non-odd kernels.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ConsistencyError, DomainError, SizeCapError
from .hermite import _eval_on, hermite_eval
from .limit_law import LimitLawParams, cdf

# Both caps are checked by simulate and by sparse-pca-sweep; peaks are
# ru_maxrss in a fresh process.  Neither command holds X, only one block
# of its samples at a time.  simulate holds the upper triangle of K, in
# 4 KB pages, each row's upper part starting on a page (_mapped_empty), and
# peaks at about 42 MB + 8 B * p^2 / 2 + 2 KB * p (half a page a row, for
# each row's last page): 81 MB at p = n = 3000 and 111 MB at p = 4000,
# n = 2000, whatever n (59 MB at p = 2000, n = 8000), so 2.6 GB at this
# cap.  The sweep holds one p x p array with huge pages, a sparse cell and
# a Lanczos basis: it peaks at 48 MB + 8 B * 1.07 p^2 while that array and
# the cells' solves coexist (p = n = 3000 to 5000, bases of 160 to 216
# rows).  A basis at the step cap adds at most 8 B * 1512 p
# (LANCZOS_MAX_STEPS rows and the 512 it grew from), 0.3 GB at this cap.
# The sweep binds, at 5.7 GB with such a basis (5.4 GB without), which
# leaves about 1 GB of a 7 GB host to everything else.
MAX_MATRIX_SIDE = 25000
# Entries of X.  The commands read X in blocks of samples and never hold
# it, so this caps their draws, not their memory: simulate at p = 2 and
# n = 1.8e8, the cap, ran 12.6 s and peaked at 40 MB, the sweep 42 MB at
# p = 2, n = 1e7.  sample_data, which assembles X for a caller, holds 8 B
# an entry, 2.9 GB at this cap.
MAX_DATA_ENTRIES = 360_000_000


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
        """A new float64 array of the given shape of i.i.d. draws from gen.
        A discrete law draws one int64 index an entry beside it: the
        commands draw one block of samples at a time (_data_blocks)."""
        if self.spec == "standard_gaussian":
            return gen.standard_normal(shape)
        if self.spec == "symmetric_rademacher":
            values, probs = np.array([-1.0, 1.0]), None  # choice(2) draws integers(0, 2)
        else:
            values, probs = self._atoms()
        return np.take(values, gen.choice(len(values), shape, p=probs))

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
        if self.p > MAX_MATRIX_SIDE:
            raise SizeCapError(f"p={self.p} exceeds cap {MAX_MATRIX_SIDE}")
        if self.p * self.n > MAX_DATA_ENTRIES:
            raise SizeCapError(f"p * n = {self.p * self.n} data entries exceeds cap {MAX_DATA_ENTRIES}")
        object.__setattr__(self, "law", EntryLaw(self.entry_law))

    @property
    def fourth_moment(self) -> float:
        return self.law.moment(4)


# Samples per block of a draw: at least _MIN_BLOCK_SAMPLES, and otherwise
# about _BLOCK_ENTRIES entries, so a block depends on (p, n) alone.  Each
# block's dsyrk adds its share to the Gram's upper triangle, so a narrow
# block reads and writes that triangle more often: into 4 KB pages, the
# Gram took 110, 101 and 103 ms at p = n = 2000 in blocks of 64, 128 and
# 256 samples, and 385, 341 and 333 ms at p = 4000, n = 2000, against 99
# and 358 ms for the row slabs it replaced, which held X whole and wrote
# huge pages (medians of 9, two BLAS threads on a 2-vCPU host).  A block
# sits beside K's triangle: simulate at p = n = 2000 peaked at 64.0 MB in
# blocks of 65 samples and 65.9 MB in blocks of 128, in the same ops' time.
_MIN_BLOCK_SAMPLES = 64
_BLOCK_ENTRIES = 2**17


def _column_blocks(p: int, n: int):
    """(j0, j1) of the blocks of samples (columns of a p x n X) that a
    draw is made and read in, in order, each of the same width but the
    last."""
    width = max(_MIN_BLOCK_SAMPLES, _BLOCK_ENTRIES // p)
    for j0 in range(0, n, width):
        yield j0, min(n, j0 + width)


def _data_blocks(cfg: DataMatrixConfig, stream: int | tuple[int, ...] = 0):
    """The _column_blocks of X, drawn one after the other from the stream
    of cfg.seed (and an optional extra stream index, or tuple of indices,
    for independent trials): each a new C-ordered (w, p) float64 array
    whose rows are w samples, that is X[:, j0:j1].T.  The generator holds
    no block while it draws the next, so a caller that drops each block
    before it asks for the next never holds two."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_DATA, stream)
    for j0, j1 in _column_blocks(cfg.p, cfg.n):
        yield cfg.law.sample(gen, (j1 - j0, cfg.p))


def _assembled(blocks, p: int, n: int) -> np.ndarray:
    """The p x n matrix whose columns the (w, p) blocks hold, in order."""
    X = np.empty((p, n))
    j0 = 0
    for block in blocks:
        X[:, j0:j0 + len(block)] = block.T
        j0 += len(block)
    return X


def sample_data(cfg: DataMatrixConfig, stream: int | tuple[int, ...] = 0) -> np.ndarray:
    """Draw X (p x n), reproducibly from cfg.seed (and an optional extra
    stream index, or tuple of indices, for independent trials): the blocks
    of _data_blocks, assembled.  The commands read those blocks and never
    hold X."""
    return _assembled(_data_blocks(cfg, stream), cfg.p, cfg.n)


def _blocks_of(X: np.ndarray):
    """The _column_blocks of a caller's p x n X, each copied out as the
    C-ordered (w, p) float64 array of its samples that a sampler yields,
    so a build from X has the bits of a build from the draw that made X."""
    p, n = X.shape
    for j0, j1 in _column_blocks(p, n):
        yield np.ascontiguousarray(X[:, j0:j1].T, dtype=np.float64)


def _tallied(blocks, sums: np.ndarray):
    """The blocks, passed on, with each block's sum over its w samples of
    x^2, less w, added into sums: once every block has passed, sums[i] is
    sum_j (x_ij^2 - 1), the row sums of rank_two_correction.  einsum sums
    the squares with no temporary of the block's size.  No block is held
    while the next is drawn."""
    for block in blocks:
        sums += np.einsum("ji,ji->i", block, block)
        sums -= len(block)
        yield block
        del block


# ---------------------------------------------------------------------------
# kernel matrices


# Entries per tile of the upper triangle (_upper_tiles): the Hermite
# sweep's buffers for one kernel tile stay in cache (8192 and 131072 were
# slower at n = p = 2000).
_TILE_ENTRIES = 32768


def _mapped_empty(shape: tuple[int, int], huge_pages: bool = True) -> np.ndarray:
    """A float64 array over its own private anonymous mapping, which reads
    as zeros until written and goes back to the OS when the last reference
    to the array is dropped.  glibc serves a large array from its heap once
    a freed one of that size has raised its mmap threshold, and keeps the
    pages when the array is freed, so a freed array would still count
    towards a later peak.  The mapping is advised MADV_HUGEPAGE where the
    platform has it, as numpy does for its own large arrays, so that
    filling it faults in huge pages, not 4 KB ones; or, unless
    `huge_pages`, MADV_NOHUGEPAGE, so that only the pages its owner
    touches take memory.  Such an array is the (rows, cols) view of a
    (rows, s) mapping, s the least stride >= cols with (s + 1) * 8 a
    multiple of the page size (2047 at cols = 2000 and 4 KB pages), so
    that each row's upper part [i, i:] starts on a page boundary: a square
    array's upper triangle then leaves half a page a row unused, not about
    a whole one."""
    rows, cols = shape
    stride = cols
    if not huge_pages:
        per_page = mmap.PAGESIZE // 8
        stride = -(-(cols + 1) // per_page) * per_page - 1
    buf = mmap.mmap(-1, 8 * rows * stride, flags=mmap.MAP_PRIVATE)
    advice = "MADV_HUGEPAGE" if huge_pages else "MADV_NOHUGEPAGE"
    if hasattr(mmap, advice):
        buf.madvise(getattr(mmap, advice))
    return np.frombuffer(buf, dtype=np.float64, count=rows * stride).reshape(rows, stride)[:, :cols]


def _upper_tiles(p: int):
    """(i0, i1) of the row slabs [i0:i1, i0:] of about _TILE_ENTRIES
    entries that cover the upper triangle of a p x p matrix, each row
    once."""
    i0 = 0
    while i0 < p:
        i1 = min(p, i0 + max(1, _TILE_ENTRIES // (p - i0)))
        yield i0, i1
        i0 = i1


@functools.cache
def _upper_mask(rows: int) -> np.ndarray:
    """The upper triangle of a rows x rows block, diagonal included."""
    mask = np.triu(np.ones((rows, rows), dtype=bool))
    mask.flags.writeable = False
    return mask


def _non_finite_error(g: np.ndarray) -> ConfigError:
    """The error for a non-finite kernel value computed from the scaled
    Gram entries g: it names the Gram where g itself is not finite (an
    entry of X X^T overflowed), and the kernel matrix otherwise."""
    if np.isfinite(g).all():
        return ConfigError("kernel matrix contains non-finite entries")
    return ConfigError("the Gram matrix X X^T / sqrt(n) of the data contains non-finite entries")


def _kernel_tiles(g: np.ndarray, kernel, n: int, out: np.ndarray) -> np.ndarray:
    """k(g) / sqrt(n) entrywise on the upper triangle of a scaled Gram g of
    n samples, written into the upper triangle of out (g itself, a buffer
    of g's shape, or g.T: see sparse_pca.sweep_tau) and returned; the rest
    of out is left as it was.  The kernel runs on row slabs g[i0:i1, i0:] of
    about _TILE_ENTRIES entries, so it also sees the part of each slab's
    diagonal block below the diagonal, and a reader of out needs g's upper
    triangle only.  A non-finite kernel value in a slab raises ConfigError,
    which names the Gram where the slab of g is itself not finite.  Each
    tile's quotient is written into out, never into the kernel's result, so
    a kernel that returns its input or a view of it leaves g intact when
    out is a separate buffer; when out is g, numpy buffers the overlap.
    Each -0.0 written is made +0.0 in the tile's pass: LAPACK's Householder
    reflections take the sign of a zero, so dsyevd's eigenvalues depend on
    it (a signed zero added to a dsymv sum leaves the sum as it was)."""
    s = math.sqrt(n)
    for i0, i1 in _upper_tiles(len(g)):
        rows = i1 - i0
        vals = _eval_on(kernel, g[i0:i1, i0:])
        if not np.isfinite(vals).all():
            raise _non_finite_error(g[i0:i1, i0:])
        # transposed, so that for out = g.T numpy's inner loop runs along
        # out's rows, which it writes contiguously, rather than down its
        # columns (7.8 against 9.0 ms a dense M_tau at p = 2000); numpy
        # loops over a C-ordered out in its own order either way
        tile = out[i0:i1, i0:].T
        upper = _upper_mask(rows).T
        np.divide(vals[:, rows:].T, s, out=tile[rows:])
        np.divide(vals[:, :rows].T, s, out=tile[:rows], where=upper)
        tile[rows:] += 0.0  # -0.0 -> +0.0
        np.add(tile[:rows], 0.0, out=tile[:rows], where=upper)
    return out


def _scaled_gram(blocks, p: int, n: int, huge_pages: bool = True) -> np.ndarray:
    """X X^T / sqrt(n) on the upper triangle of a p x p array over its own
    mapping (_mapped_empty), for the p x n X whose columns the blocks hold:
    C-ordered (w, p) float64 arrays of w samples each, in order, as
    _data_blocks yields them.  Each block's share B^T B / sqrt(n) is added
    in place by numpy's cblas_dsyrk, which writes the upper triangle alone,
    so the strict lower triangle reads as zeros and, unless `huge_pages`,
    takes no memory; its leading dimension is the array's row stride,
    which exceeds p unless `huge_pages` (see _mapped_empty).  Without the
    symbol, numpy products over the upper triangle's tiles (_upper_tiles),
    which also write the part of each tile's diagonal block below the
    diagonal.  Each block is dropped before the next is drawn.  An entry
    that overflows is left for the kernel's finiteness check."""
    if p > MAX_MATRIX_SIDE:
        raise SizeCapError(f"p={p} exceeds cap {MAX_MATRIX_SIDE}")
    G = _mapped_empty((p, p), huge_pages)
    ldg = G.strides[0] // 8
    dsyrk = _cblas_dsyrk()
    scale = 1.0 / math.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            if block.shape[1:] != (p,) or not block.flags.c_contiguous or block.dtype != np.float64:
                raise ConsistencyError(f"a Gram block must be a C-ordered (w, {p}) float64 array")
            if dsyrk is None:
                for i0, i1 in _upper_tiles(p):
                    G[i0:i1, i0:] += scale * (block[:, i0:i1].T @ block[:, i0:])
            else:
                # 101, 121, 112: row-major, upper triangle, G += scale B^T B
                dsyrk(101, 121, 112, p, len(block), scale, block.ctypes.data, p, 1.0, G.ctypes.data, ldg)
            del block  # not held while the next block is drawn
    return G


def _kernel_triangle(blocks, p: int, n: int, kernel, diagonal: bool = False) -> np.ndarray:
    """The upper triangle of k(sqrt(n) * Sigma_hat) / sqrt(n) for the X
    whose columns the blocks hold (see _scaled_gram), its diagonal zero
    unless `diagonal`, in place of the Gram of a 4 KB-page mapping whose
    rows are padded so that each row's upper part K[i, i:] starts on a
    page (_mapped_empty): the Gram, the kernel's tiles (_kernel_tiles) and
    the diagonal touch only the upper triangle's pages, which hold its
    entries and half a page a row more, and leave the strict lower
    triangle as the Gram did.  So the build holds one block of X at a
    time, never X, and half of K.  K is a view with a row stride past p,
    so its buffer is not C-ordered."""
    K = _scaled_gram(blocks, p, n, huge_pages=False)
    _kernel_tiles(K, kernel, n, out=K)
    if not diagonal:
        np.fill_diagonal(K, 0.0)
    return K


def _kernel_matrix(X: np.ndarray, kernel, diagonal: bool = True) -> np.ndarray:
    """k(sqrt(n) * Sigma_hat) / sqrt(n) entrywise, exactly symmetric, the
    diagonal included unless not `diagonal`: _kernel_triangle on X's
    blocks, whose upper triangle is then mirrored into its lower one."""
    K = _kernel_triangle(_blocks_of(X), *X.shape, kernel, diagonal)
    for i0, i1 in _upper_tiles(len(K)):
        K[i1:, i0:i1] = K[i0:i1, i1:].T
        block = K[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
    return K


def build_kernel_matrix(X: np.ndarray, kernel) -> np.ndarray:
    """K(X)[i,i'] = k(sqrt(n) * Sigma_hat[i,i']) / sqrt(n) off-diagonal,
    exactly zero on the diagonal.  Built from the upper triangle so the
    result is exactly symmetric.  X is left as it was."""
    return _kernel_matrix(X, kernel, diagonal=False)


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


def _checked_symmetric(m) -> np.ndarray:
    """m as an array, after spectrum's checks of a caller's matrix: real,
    square, finite, and symmetric to 1e-10 of its largest entry.  Works in
    the row slabs of _upper_tiles, comparing each slab's upper part with
    its mirror, so it allocates no p x p temporary."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ConfigError(f"expected a real matrix, got dtype {m.dtype}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ConfigError(f"expected a non-empty square matrix, got shape {m.shape}")
    p = m.shape[0]
    scale, asym = 1.0, 0.0
    for i0, i1 in _upper_tiles(p):
        slab_max = float(np.max(np.abs(m[i0:i1])))
        if not math.isfinite(slab_max):
            raise ConfigError("matrix contains non-finite entries")
        scale = max(scale, slab_max)
        diff = m[i0:i1, i0:] - m[i0:, i0:i1].T
        asym = max(asym, float(np.max(np.abs(diff))))
    if asym > SYMMETRY_RTOL * scale:
        raise ConfigError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return m


def _numpy_openblas(name: str, restype, *argtypes):
    """The function `name` of the ILP64 OpenBLAS that numpy's linalg
    module links, looked up through that module's handle under the name
    numpy's wheels give it (scipy_..._64_), or None where the library has
    no such symbol."""
    from numpy.linalg import _umath_linalg

    try:
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_{name}64_")
    except (OSError, AttributeError):
        return None
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn


_I64, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_INT, _DOUBLE = ctypes.c_int, ctypes.c_double


@functools.cache
def _lapacke_dsyevd():
    """numpy's LAPACKE_dsyevd, or None (see _numpy_openblas)."""
    return _numpy_openblas("LAPACKE_dsyevd", _I64, _INT, _CHAR, _CHAR, _I64, _PTR, _I64, _PTR)


@functools.cache
def _cblas_dsymv():
    """numpy's cblas_dsymv, or None (see _numpy_openblas)."""
    return _numpy_openblas(
        "cblas_dsymv", None, _INT, _INT, _I64, _DOUBLE, _PTR, _I64, _PTR, _I64, _DOUBLE, _PTR, _I64
    )


@functools.cache
def _cblas_dsyrk():
    """numpy's cblas_dsyrk, or None (see _numpy_openblas)."""
    return _numpy_openblas(
        "cblas_dsyrk", None, _INT, _INT, _INT, _I64, _I64, _DOUBLE, _PTR, _I64, _DOUBLE, _PTR, _I64
    )


@functools.cache
def _lapacke_dstevr():
    """numpy's LAPACKE_dstevr, or None (see _numpy_openblas)."""
    return _numpy_openblas(
        "LAPACKE_dstevr", _I64, _INT, _CHAR, _CHAR, _I64, _PTR, _PTR, _DOUBLE, _DOUBLE, _I64, _I64,
        _DOUBLE, _PTR, _PTR, _PTR, _I64, _PTR,
    )


def _eigvalsh_in_place(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle
    is that of a float64 square m with unit column stride and a row stride
    of at least its side, such as the padded K of _kernel_triangle (the
    lower triangle is not read), by LAPACK dsyevd with JOBZ = 'N' working
    in m itself, which it leaves overwritten.  In LAPACK's column-major
    order such an m is m.T with the row stride as its leading dimension,
    so UPLO = 'L' reads m's upper triangle.  For an exactly symmetric m
    that triangle holds the values np.linalg.eigvalsh reads, from its
    column-major copy, and the call is the one it makes, so the eigenvalues
    have its bits.  Without the LAPACKE symbol this is eigvalsh of m.T,
    which copies m and reads the same triangle."""
    if not (m.dtype == np.float64 and m.flags.writeable and m.ndim == 2 and m.shape[0] == m.shape[1]
            and m.strides[1] == 8 and m.strides[0] % 8 == 0 and m.strides[0] >= 8 * m.shape[0]):
        raise ConsistencyError(
            "the in-place solve needs a writeable square float64 array with unit column stride")
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(m.T)
    p = m.shape[0]
    w = np.empty(p)
    # 102: column-major, with the row stride as the leading dimension
    info = dsyevd(102, b"N", b"L", p, m.ctypes.data, m.strides[0] // 8, w.ctypes.data)
    if info:
        raise ConsistencyError(f"LAPACK dsyevd failed at p={p} (info {info})")
    return w


def spectrum(m: np.ndarray) -> SpectrumSummary:
    """Full symmetric eigendecomposition, descending order, of a caller's
    matrix, after _checked_symmetric's checks: np.linalg.eigvalsh on a copy
    of m, which is left as it was.  (The simulate command solves the kernel
    matrix it built itself in place, on its upper triangle alone: see
    trial.)"""
    return SpectrumSummary(eigenvalues=np.linalg.eigvalsh(_checked_symmetric(m))[::-1].copy())


def trial(cfg: DataMatrixConfig, kernel, a2: float,
          stream: int | tuple[int, ...] = 0) -> tuple[SpectrumSummary, SpikePrediction]:
    """One trial of the simulate command: the spectrum of K(X), zero on the
    diagonal, and the rank-two spike prediction for a2, for the X of cfg's
    stream (see _data_blocks).  X is never held: its blocks of samples are
    drawn one at a time, each adding its share to the Gram in K's upper
    triangle (and its x^2 - 1 to the spike's row sums), and the kernel, the
    diagonal and the solve touch that triangle alone, which the solve
    overwrites.  The build checked every entry for finiteness, and K is
    symmetric by construction, so the solve needs neither the mirror nor
    spectrum's checks."""
    sums = np.zeros(cfg.p)
    K = _kernel_triangle(_tallied(_data_blocks(cfg, stream), sums), cfg.p, cfg.n, kernel)
    spikes = _rank_two_spikes(sums, cfg.n, a2, cfg.fourth_moment)
    return SpectrumSummary(eigenvalues=_eigvalsh_in_place(K)[::-1].copy()), spikes


# Lanczos steps allowed to one _extreme_eigenvalue solve, and so rows of
# its basis: 8 B * LANCZOS_MAX_STEPS a matrix row at the cap.  The sweep's
# solves (taus 0.5:4.0:5) took at most 128, 144, 160, 184 and 216 steps at
# n = p = 1000 to 5000, and 152 and 192 at n = 2p = 4000 and 6000.
LANCZOS_MAX_STEPS = 1000
_RITZ_CHECK_STEPS = 8  # steps between two Ritz checks of a Lanczos solve
_DGKS_RATIO = 1 / math.sqrt(2)  # a Gram-Schmidt pass keeping more of |w| is the last
_LAPACK_EPS = np.finfo(float).eps / 2  # dlamch('E'): ARPACK's tol at tol = 0


def _symmetric_product(m: np.ndarray):
    """v -> m v for a float64 m read on its upper triangle only: numpy's
    cblas_dsymv on m's buffer, with no copy for a float64 m with unit
    stride along one axis, such as the padded views of K that
    _mapped_empty makes.  Without the symbol, a symmetric copy of m's
    upper triangle and m @ v products, which read the whole matrix: one
    p x p array more, built with one more temporary, and a dense solve at
    p = 1000 took 36 ms against 19 ms.  The product is written into one
    buffer, which the next product overwrites."""
    dsymv = _cblas_dsymv()
    if dsymv is None:
        sym = np.triu(m)
        sym += np.triu(sym, 1).T
        return lambda v: sym @ v
    # m is read row-major (101) where its rows have unit stride, with the
    # row stride as leading dimension, or column-major (102) where its
    # columns have, with the column stride; any other m from a C-ordered
    # float64 copy.  121: the upper triangle
    p = m.shape[0]
    rows, cols = (s // 8 for s in m.strides) if m.dtype == np.float64 and m.flags.aligned else (0, 0)
    if cols == 1 and rows >= p:
        layout, lda = 101, rows
    elif rows == 1 and cols >= p:
        layout, lda = 102, cols
    else:
        layout, lda, m = 101, p, np.ascontiguousarray(m, dtype=np.float64)
    x, y = np.empty(p), np.empty(p)
    # data_as pointers hold their arrays, m's copy included
    m_, x_, y_ = (a.ctypes.data_as(_PTR) for a in (m, x, y))

    def product(v):
        np.copyto(x, v)
        dsymv(layout, 121, p, 1.0, m_, lda, x_, 1, 0.0, y_, 1)
        return y

    return product


def _top_ritz_pair(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal alpha and off-diagonal beta[:-1], and the last entry of its
    unit eigenvector: numpy's LAPACKE_dstevr, by bisection and inverse
    iteration on that one eigenvalue, O(k) for k = len(alpha): 26 us at
    k = 32 and 41 us at k = 64.  Without the symbol, np.linalg.eigh of the
    dense k x k matrix, O(k^3): a dense solve at p = 1000 (104 steps, 13
    checks) took 25 ms against 19 ms, with two BLAS threads on a 2-vCPU
    host."""
    k = len(alpha)
    dstevr = _lapacke_dstevr()
    if dstevr is None:
        t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        w, z = np.linalg.eigh(t)
        return float(w[-1]), float(z[-1, -1])
    d, e = alpha.copy(), beta.copy()  # dstevr overwrites both
    w, z = np.empty(k), np.empty(k)
    found, support = np.zeros(1, np.int64), np.empty(2, np.int64)
    # 102: column-major; "I": eigenvalues il..iu (1-based, ascending)
    info = dstevr(
        102, b"V", b"I", k, d.ctypes.data, e.ctypes.data, 0.0, 0.0, k, k, 0.0,
        found.ctypes.data, w.ctypes.data, z.ctypes.data, k, support.ctypes.data,
    )
    if info or found[0] != 1:
        raise ConsistencyError(f"LAPACK dstevr failed at k={k} (info {info})")
    return float(w[0]), float(z[-1])


def _extreme_eigenvalue(m) -> float:
    """The largest eigenvalue of a finite real symmetric m: a dense array,
    read on its upper triangle only, or an operator with a shape
    and a matvec(v) method (the sweep's sparse cells).  These are the
    sweep's M_tau cells, which their builder makes finite and symmetric,
    so m is not checked here.  The sweep passes the transposed view of an
    array whose lower triangle holds M_tau and whose upper one holds the
    Gram, so a dense m's lower triangle may hold anything.

    Lanczos with full reorthogonalisation (the three-term recurrence, then
    a classical Gram-Schmidt pass against the whole basis, and a second
    where the first kept less than 1/sqrt(2) of |w|: the DGKS criterion),
    started from a fixed Gaussian vector, so runs repeat: an all-ones start
    would be orthogonal to balanced +-1 spikes.  Every _RITZ_CHECK_STEPS
    steps the top Ritz pair (theta, s) of the tridiagonal comes from
    LAPACK dstevr, and the solve stops on ARPACK's tol = 0 test,
    beta_k |s_k| <= eps max(eps^(2/3), |theta|), eps = 2^-53.  It also
    stops on an invariant Krylov space, beta_k <= 1e-15 |m v_k| (what is
    left of w is rounding; the zero matrix stops there at step 1, with
    0.0), and at k = p steps, where the Krylov space is all of R^p.  A
    solve that reaches LANCZOS_MAX_STEPS < p first raises ConsistencyError
    rather than returning an unconverged value.  A product whose norm
    overflows (|m v| past about 1.3e154, where |m v|^2 leaves the doubles)
    raises DomainError: an inf norm would pass the invariance test, and
    the first Ritz value would come back.

    A stop on residual^2 / gap would come earlier, but returns the second
    eigenvalue when the top two are closer than the Krylov space resolves
    and the start vector has the smaller part along the top one.

    A dense m's products are BLAS dsymv calls on its upper triangle
    (_symmetric_product), which read half the matrix: a median 0.085 ms
    against 0.20 ms for m @ v at p = 1000, and 0.43 ms against 0.72 ms at
    p = 2000, with two BLAS threads on a 2-vCPU Xeon.  Every BLAS call is
    numpy's OpenBLAS, whose thread pool the sweep's Gram also runs on.
    """
    p = m.shape[0]
    product = _symmetric_product(m) if isinstance(m, np.ndarray) else m.matvec
    steps = min(p, LANCZOS_MAX_STEPS)
    # grown by doubling: most solves stop after tens of steps, far below p
    basis = np.empty((min(steps, 64), p))
    alpha, beta = np.empty(steps), np.empty(steps)
    start = rngmod.derive_rng(0, rngmod.STREAM_LANCZOS, p).standard_normal(p)
    basis[0] = start / math.sqrt(start @ start)
    with np.errstate(over="ignore"):  # an overflowing |m v| raises below
        for k in range(steps):
            v = basis[k]
            w = product(v)
            image_norm = math.sqrt(w @ w)
            if not math.isfinite(image_norm):
                raise DomainError(f"|m v| overflows double precision at Lanczos step {k} at p={p}")
            a = alpha[k] = v @ w
            w -= a * v
            if k:
                w -= b * basis[k - 1]
            done = basis[: k + 1]
            before = math.sqrt(w @ w)
            for _ in range(2):
                w -= (done @ w) @ done
                b = beta[k] = math.sqrt(w @ w)
                if b > _DGKS_RATIO * before:
                    break
                before = b
            size = k + 1
            invariant = b <= 1e-15 * image_norm
            if invariant or size % _RITZ_CHECK_STEPS == 0 or size == steps:
                theta, last = _top_ritz_pair(alpha[:size], beta[:size])
                tol = _LAPACK_EPS * max(_LAPACK_EPS ** (2 / 3), abs(theta))
                if invariant or size == p or b * abs(last) <= tol:
                    return theta
            if size == steps:
                break
            if size == len(basis):
                basis = np.concatenate([basis, np.empty((min(steps, 2 * size) - size, p))])
            np.divide(w, b, out=basis[size])
    raise ConsistencyError(f"Lanczos did not converge in {steps} steps at p={p}")


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


def elementary_symmetric(terms, kmax: int, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_kmax of the terms z_j, by the
    recurrence e_k += z_j e_{k-1}, one array operation per term: every
    product is formed from the e before the term.  The terms are the first
    axis of an array, or any iterable of arrays of the given shape (so the
    caller need not hold all of them at once); e[k] has that shape."""
    e = np.zeros((kmax + 1, *shape))
    e[0] = 1.0
    for zj in terms:
        e[1:] += zj * e[:-1]
    return e


def decompose_hermite_sum(z: Sequence[float] | np.ndarray, d: int) -> HermiteSumDecomposition:
    """Split h_d(sum(z)/sqrt(n)) into its distinct-index symmetric part q,
    the variance-correction part r, and the residual s.

    q = sqrt(d!/n^d) * e_d(z); the ordered sum over distinct d-tuples is
    d! * e_d(z).  For d >= 2,
    r = sqrt(d!)/(2 n^{d/2}) * sum_j (z_j^2 - 1) e_{d-2}(z with j removed),
    using that the ordered distinct-tuple sum with one marked slot equals
    (d-2)! times the leave-one-out symmetric polynomial; and r = 0, s = 0
    identically for d = 1 (and s = 0 for d = 2).  As e_k(z with j removed)
    = sum_i (-1)^i z_j^i e_{k-i}(z), the sum over j is, at k = d - 2,
    sum_{i<=k} (-1)^i e_{k-i}(z) (P_{i+2} - P_i), P_i = sum_j z_j^i, P_0 = n.

    z has shape (..., n): the leading axes are a batch, and every field of
    the result has the batch shape (floats for a 1-D z).  The e_k
    recurrence runs once over the n samples for the whole batch, and the
    power sums are pairwise sums along each row, so each batch entry sees
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

    e = elementary_symmetric(np.moveaxis(z, -1, 0), d, shape=tuple(batch))
    q = math.sqrt(math.factorial(d) / float(n) ** d) * e[d]

    power = [float(n), z.sum(axis=-1)]  # P_0 = n and P_1
    zi = z.copy()
    for _ in range(d - 1):
        zi *= z
        power.append(zi.sum(axis=-1))
    acc = sum(((-1) ** i * e[d - 2 - i] * (power[i + 2] - power[i]) for i in range(d - 1)),
              np.zeros(batch))
    r = math.sqrt(math.factorial(d)) / (2.0 * float(n) ** (d / 2.0)) * acc

    h_value = np.asarray(hermite_eval(d, power[1] / math.sqrt(n)))
    s = np.zeros(batch) if d == 1 else h_value - q - r
    if not batch:
        q, r, s, h_value = float(q), float(r), float(s), float(h_value)
    return HermiteSumDecomposition(d=d, q=q, r=r, s=s, h_value=h_value)


def remainder_variance(d: int, n: int) -> float:
    """E[s^2] of decompose_hermite_sum(z, d), n >= d iid standard normal z,
    rounded once from integers: 1 - E[q^2] - E[r^2], as the parts of h_d(S)
    for the index-multiplicity patterns of d are orthogonal.  q is 1^d, with
    E[q^2] = d! C(n, d)/n^d, and r is 2 1^(d-2), with E[r^2] = (d!/2) n
    C(n-1, d-2)/n^d: 0 for d <= 2, 1/n^2 at d = 3, (7n^2 - 6n)/n^4 at d = 4."""
    q = math.factorial(d) * math.comb(n, d)
    r = math.factorial(d) // 2 * n * math.comb(n - 1, d - 2) if d >= 2 else 0
    return (n**d - q - r) / n**d


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

    With a2 = 0 the correction vanishes and no spikes are returned.  The
    row sums sum_j (x_ij^2 - 1) add up over X's blocks of samples, as
    simulate's Gram reads them (_tallied), so the spikes of X have the bits
    of simulate's from the draw that made X.
    """
    sums = np.zeros(X.shape[0])
    if a2 != 0.0:
        for _ in _tallied(_blocks_of(X), sums):
            pass
    return _rank_two_spikes(sums, X.shape[1], a2, fourth_moment)


def _rank_two_spikes(sums: np.ndarray, n: int, a2: float, fourth_moment: float) -> SpikePrediction:
    """rank_two_correction from the row sums sum_j (x_ij^2 - 1) of X's n
    samples."""
    if a2 == 0.0:
        return SpikePrediction(locations=(), empirical=())
    p = len(sums)
    gamma = p / n
    v = sums / math.sqrt(n)
    v1 = float(v.sum())
    vv = float(np.dot(v, v))
    b = a2 * math.sqrt(2.0) / n * v1
    c = a2 * a2 / (2.0 * n * n) * (v1 * v1 - p * vv)
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    roots = tuple(sorted(((b - disc) / 2.0, (b + disc) / 2.0)))
    mag = abs(a2) * gamma * math.sqrt(max(fourth_moment - 1.0, 0.0) / 2.0)
    return SpikePrediction(locations=(-mag, mag), empirical=roots)
