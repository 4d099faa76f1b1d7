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
# ru_maxrss in a fresh process.  simulate holds X or K, and a slab, and
# peaks at most at 47 MB + 8 B * 1.06 max(p^2, p n): 44 MB + 8 B * 1.06
# p^2 at n <= p (p = n = 1500 to 5000, and p = 4000, n = 2000) and 46 MB
# + 8 B * p n at n > p (p = 3000, n = 6000, and p = 2000, n = 8000).  The
# sweep holds X or one p x p array, and a slab, a sparse cell and a
# Lanczos basis: it peaks at 48 MB + 8 B * 1.07 p^2 while that array and
# the cells' solves coexist (p = n = 3000 to 5000, bases of 160 to 216
# rows), and at 43 MB + 8 B * (p n + 0.05 p^2) while X is drawn and its
# Gram formed (p = 2000 and 3000, n = 2p).  A basis at the step cap adds
# at most 8 B * 1512 p (LANCZOS_MAX_STEPS rows and the 512 it grew from),
# 0.3 GB at this cap.  The sweep binds, at 5.7 GB with such a basis (5.4
# GB without, and simulate's 5.4 GB), which leaves about 1 GB of a 7 GB
# host to everything else.
MAX_MATRIX_SIDE = 25000
# Entries of X.  Drawing X peaks at 16 B per entry for the sweep at p = 2
# (ru_maxrss at p * n = 1e7 and 2e7).  simulate costs 7.6 B an entry at
# p = 64 and 11.4 B at p = 2, where rank_two_correction's one-row slab is
# half of X, under every entry law.  So 5.8 GB at this cap, which binds;
# with p <= MAX_MATRIX_SIDE the sweep's p n + 0.05 p^2 stays within 3.2 GB
# and simulate's 1.06 max(p^2, p n) within 5.4 GB.
MAX_DATA_ENTRIES = 360_000_000
_DRAW_BLOCK = 2**19  # entries per index draw of a discrete entry law


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

    def sample(self, gen: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
        """An array of the given shape of i.i.d. draws from gen, written
        into out (a C-ordered float64 array of that shape) if given.  The
        draws and their bits do not depend on out."""
        if self.spec == "standard_gaussian":
            return gen.standard_normal(shape, out=out)
        if self.spec == "symmetric_rademacher":
            values, probs = np.array([-1.0, 1.0]), None  # choice(2) draws integers(0, 2)
        else:
            values, probs = self._atoms()
        out = np.empty(shape) if out is None else out
        # blocks of the int64 index draw give the one-draw stream and never sit
        # beside all of out; "clip" never acts (every index is in range) and
        # spares the copy of each block that the default mode buffers through
        for block in np.split(out.reshape(-1), range(_DRAW_BLOCK, out.size, _DRAW_BLOCK)):
            np.take(values, gen.choice(len(values), block.size, p=probs), out=block, mode="clip")
        return out

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


def sample_data(
    cfg: DataMatrixConfig, stream: int | tuple[int, ...] = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw X (p x n), reproducibly from cfg.seed (and an optional extra
    stream index, or tuple of indices, for independent trials), into out
    (a C-ordered p x n float64 array) if given."""
    gen = rngmod.derive_rng(cfg.seed, rngmod.STREAM_DATA, stream)
    return cfg.law.sample(gen, (cfg.p, cfg.n), out=out)


# ---------------------------------------------------------------------------
# kernel matrices


# Rows per block in the blocked passes over X and over a p x p matrix: the
# Gram slabs of the kernel-matrix build (where a tail of fewer than half as
# many rows joins the last slab), the full kernel matrix's mirror pass and
# spectrum's check, whose two temporaries of this many rows are freed
# before its solve.
_SLAB_ROWS = 128
# Gram entries per kernel tile: the Hermite sweep's buffers for one tile
# stay in cache (8192 and 131072 were slower at n = p = 2000).
_TILE_ENTRIES = 32768


class _DisposableMapping(mmap.mmap):
    """An anonymous mapping whose array a Gram's slab pass gives back to the
    OS as it reads it (see _mapped_empty)."""


def _mapped_empty(shape: tuple[int, int], disposable: bool = False) -> np.ndarray:
    """An uninitialised float64 array over its own anonymous mapping, which
    goes back to the OS when the last reference to the array is dropped.
    glibc serves a large array from its heap once a freed one of that size
    has raised its mmap threshold, and keeps the pages when the array is
    freed, so a freed array would still count towards a later peak.  The
    mapping is advised MADV_HUGEPAGE where the platform has it, as numpy
    does for its own large arrays, so that filling it faults in huge pages,
    not 4 KB ones.

    A disposable array is one its owner hands to a Gram's slab pass
    (_scaled_gram_slabs), which gives its pages back to the OS as it reads
    them, so that it reads as zeros after the Gram."""
    count = math.prod(shape)
    # private: pages given back from a shared mapping would stay in memory
    buf = (_DisposableMapping if disposable else mmap.mmap)(-1, 8 * count, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


def _disposable_mapping(X: np.ndarray) -> mmap.mmap | None:
    """The mapping under X if X is all of a disposable _mapped_empty array,
    else None."""
    base = X.base
    view = base.base if isinstance(base, np.ndarray) else None
    if (
        isinstance(view, memoryview)
        and isinstance(view.obj, _DisposableMapping)
        and X.flags.c_contiguous
        and X.ctypes.data == base.ctypes.data
        and X.nbytes == len(view.obj)
    ):
        return view.obj
    return None


def _upper_tiles(rows: int, cols: int | None = None):
    """(i0, i1) of the row slabs [i0:i1, i0:] of about _TILE_ENTRIES
    entries that cover the upper triangle of a rows x cols matrix (square
    by default), each row once."""
    cols = rows if cols is None else cols
    i0 = 0
    while i0 < rows:
        i1 = min(rows, i0 + max(1, _TILE_ENTRIES // (cols - i0)))
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
    n samples, or of a slab of one whose diagonal starts at g[0, 0],
    written into the upper triangle of out (g itself, a buffer of g's
    shape, or g.T: see sparse_pca.sweep_tau) and returned; the rest of out
    is left as it was.  The kernel runs on row slabs g[i0:i1, i0:] of about
    _TILE_ENTRIES entries, so it also sees the part of each slab's diagonal
    block below the diagonal, and a reader of out needs g's upper triangle
    only.  A non-finite kernel value in a slab raises ConfigError, which
    names the Gram where the slab of g is itself not finite.  Each tile's
    quotient is written into out, never into the kernel's result, so a
    kernel that returns its input or a view of it leaves g intact when out
    is a separate buffer; when out is g, numpy buffers the overlap."""
    s = math.sqrt(n)
    for i0, i1 in _upper_tiles(*g.shape):
        rows = i1 - i0
        vals = _eval_on(kernel, g[i0:i1, i0:])
        if not np.isfinite(vals).all():
            raise _non_finite_error(g[i0:i1, i0:])
        # transposed, so that for out = g.T numpy's inner loop runs along
        # out's rows, which it writes contiguously, rather than down its
        # columns (7.8 against 9.0 ms a dense M_tau at p = 2000); numpy
        # loops over a C-ordered out in its own order either way
        tile = out[i0:i1, i0:].T
        np.divide(vals[:, rows:].T, s, out=tile[rows:])
        np.divide(vals[:, :rows].T, s, out=tile[:rows], where=_upper_mask(rows).T)
    return out


def _gram_slabs(p: int):
    """(i0, i1) of the row slabs of _SLAB_ROWS rows that cover p rows,
    a tail of fewer than half a slab joined to the last one."""
    i0 = 0
    while i0 < p:
        i1 = i0 + _SLAB_ROWS
        if p - i1 < _SLAB_ROWS // 2:
            i1 = p
        yield i0, i1
        i0 = i1


def _scaled_gram_slabs(X: np.ndarray, out: np.ndarray | None = None):
    """(i0, i1, g) over the _gram_slabs of X (p x n), where g is the slab
    X[i0:i1] @ X[i0:].T / sqrt(n) of the scaled Gram: rows i0:i1 from
    column i0 on, diagonal block whole.  Each slab is a new array of
    i1 - i0 rows, or the view out[i0:i1, i0:] of a C-ordered p x p out,
    with the same bits.  No later slab reads the rows of X before i1, so
    when X is all of a disposable _mapped_empty array, the whole pages of
    those rows go back to the OS once the caller asks for the next slab,
    and X reads as zeros after the last one; any other X is left as it
    was."""
    p, n = X.shape
    s = math.sqrt(n)
    mapping = _disposable_mapping(X)
    released = 0
    for i0, i1 in _gram_slabs(p):
        # an overflowing entry is reported by the kernel's finiteness check
        with np.errstate(over="ignore"):
            g = np.matmul(X[i0:i1], X[i0:].T, out=None if out is None else out[i0:i1, i0:])
            g /= s
        yield i0, i1, g
        end = i1 * n * X.itemsize // mmap.PAGESIZE * mmap.PAGESIZE
        if mapping is not None and end > released:
            mapping.madvise(mmap.MADV_DONTNEED, released, end - released)
            released = end


def _kernel_triangle(X: np.ndarray, kernel, diagonal: bool = False) -> np.ndarray:
    """The upper triangle of k(sqrt(n) * Sigma_hat) / sqrt(n), its diagonal
    zero unless `diagonal`, in an array over its own mapping
    (_mapped_empty) whose strict lower triangle reads as zeros.

    The Gram is formed in row slabs, X[i0:i1] @ X[i0:].T / sqrt(n), and
    the kernel is written from each slab straight into K[i0:i1, i0:]
    (_kernel_tiles).  So besides X the build holds K and one slab, and a
    disposable X goes back to the OS as the slabs pass it
    (_scaled_gram_slabs).  Each slab's -0.0 entries become +0.0: LAPACK's
    Householder reflections take the sign of a zero, so dsyevd's
    eigenvalues depend on it."""
    p, n = X.shape
    if p > MAX_MATRIX_SIDE:
        raise SizeCapError(f"p={p} exceeds cap {MAX_MATRIX_SIDE}")
    K = _mapped_empty((p, p))
    for i0, i1, g in _scaled_gram_slabs(X):
        _kernel_tiles(g, kernel, n, out=K[i0:i1, i0:])
        K[i0:i1, i0:] += 0.0  # -0.0 -> +0.0
    if not diagonal:
        np.fill_diagonal(K, 0.0)
    return K


def _kernel_matrix(X: np.ndarray, kernel, diagonal: bool = True) -> np.ndarray:
    """k(sqrt(n) * Sigma_hat) / sqrt(n) entrywise, exactly symmetric, the
    diagonal included unless not `diagonal`: _kernel_triangle, whose upper
    triangle is then mirrored into its lower one."""
    K = _kernel_triangle(X, kernel, diagonal)
    p = len(K)
    for i0 in range(0, p, _SLAB_ROWS):
        i1 = min(i0 + _SLAB_ROWS, p)
        K[i0:i1, :i0] = K[:i0, i0:i1].T
        block = K[i0:i1, i0:i1]
        block += np.triu(block, 1).T  # onto the zeros below the diagonal
    return K


def build_kernel_matrix(X: np.ndarray, kernel) -> np.ndarray:
    """K(X)[i,i'] = k(sqrt(n) * Sigma_hat[i,i']) / sqrt(n) off-diagonal,
    exactly zero on the diagonal.  Built from the upper triangle so the
    result is exactly symmetric.  X is left as it was, unless it is a
    disposable _mapped_empty array (see _kernel_triangle)."""
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
    row slabs, comparing each slab's upper part with its mirror, so it
    allocates no p x p temporary."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ConfigError(f"expected a real matrix, got dtype {m.dtype}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ConfigError(f"expected a non-empty square matrix, got shape {m.shape}")
    p = m.shape[0]
    scale, asym = 1.0, 0.0
    for i0 in range(0, p, _SLAB_ROWS):
        i1 = min(i0 + _SLAB_ROWS, p)
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
def _lapacke_dstevr():
    """numpy's LAPACKE_dstevr, or None (see _numpy_openblas)."""
    return _numpy_openblas(
        "LAPACKE_dstevr", _I64, _INT, _CHAR, _CHAR, _I64, _PTR, _PTR, _DOUBLE, _DOUBLE, _I64, _I64,
        _DOUBLE, _PTR, _PTR, _PTR, _I64, _PTR,
    )


def _eigvalsh_in_place(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle
    is that of a C-ordered float64 m (the lower one is not read), by
    LAPACK dsyevd with JOBZ = 'N' working in m itself, which it leaves
    overwritten.  In LAPACK's column-major order a C-ordered m is m.T, so
    UPLO = 'L' reads m's upper triangle.  For an exactly symmetric m that
    triangle holds the values np.linalg.eigvalsh reads, from its
    column-major copy, and the call is the one it makes, so the eigenvalues
    have its bits.  Without the LAPACKE symbol this is eigvalsh of m.T,
    which copies m and reads the same triangle."""
    if not (m.dtype == np.float64 and m.flags.c_contiguous and m.flags.writeable
            and m.ndim == 2 and m.shape[0] == m.shape[1]):
        raise ConsistencyError("the in-place solve needs a writeable C-ordered square float64 array")
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(m.T)
    p = m.shape[0]
    w = np.empty(p)
    info = dsyevd(102, b"N", b"L", p, m.ctypes.data, p, w.ctypes.data)  # 102: column-major
    if info:
        raise ConsistencyError(f"LAPACK dsyevd failed at p={p} (info {info})")
    return w


def spectrum(m: np.ndarray) -> SpectrumSummary:
    """Full symmetric eigendecomposition, descending order, of a caller's
    matrix, after _checked_symmetric's checks: np.linalg.eigvalsh on a copy
    of m, which is left as it was.  (The simulate command solves the kernel
    matrix it built itself in place, on its upper triangle alone: see
    _kernel_triangle and _eigvalsh_in_place.)"""
    return SpectrumSummary(eigenvalues=np.linalg.eigvalsh(_checked_symmetric(m))[::-1].copy())


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
    cblas_dsymv on m's buffer, with no copy for a C- or Fortran-ordered
    m.  Without the symbol, a symmetric copy of m's upper triangle and
    m @ v products, which read the whole matrix: one p x p array more,
    built with one more temporary, and a dense solve at p = 1000 took 36
    ms against 19 ms.  The product is written into one buffer, which the
    next product overwrites."""
    dsymv = _cblas_dsymv()
    if dsymv is None:
        sym = np.triu(m)
        sym += np.triu(sym, 1).T
        return lambda v: sym @ v
    # a Fortran-ordered float64 m is read column-major (102), any other m
    # row-major (101), from a C-ordered float64 copy if it is not one;
    # 121: the upper triangle
    if m.dtype == np.float64 and m.flags.f_contiguous and not m.flags.c_contiguous:
        layout = 102
    else:
        layout, m = 101, np.ascontiguousarray(m, dtype=np.float64)
    p = m.shape[0]
    x, y = np.empty(p), np.empty(p)
    # data_as pointers hold their arrays, m's copy included
    m_, x_, y_ = (a.ctypes.data_as(_PTR) for a in (m, x, y))

    def product(v):
        np.copyto(x, v)
        dsymv(layout, 121, p, 1.0, m_, p, x_, 1, 0.0, y_, 1)
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
    recurrence e_k += z_j e_{k-1}.  The terms are the first axis of an
    array, or any iterable of arrays of the given shape (so the caller need
    not hold all of them at once); e[k] has that shape."""
    e = np.zeros((kmax + 1, *shape))
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

    With a2 = 0 the correction vanishes and no spikes are returned.
    """
    if a2 == 0.0:
        return SpikePrediction(locations=(), empirical=())
    p, n = X.shape
    gamma = p / n
    # row slabs of (x_ij^2 - 1) of at most 2^19 entries (one row if n is
    # larger): each row sums as it would in one pass over X, with a
    # temporary of a few MB, not of X
    rows = max(1, min(_SLAB_ROWS, 2**19 // n))
    v = np.empty(p)
    for i0 in range(0, p, rows):
        slab = X[i0:i0 + rows]
        v[i0:i0 + rows] = (slab * slab - 1.0).sum(axis=1)
    v /= math.sqrt(n)
    v1 = float(v.sum())
    vv = float(np.dot(v, v))
    b = a2 * math.sqrt(2.0) / n * v1
    c = a2 * a2 / (2.0 * n * n) * (v1 * v1 - p * vv)
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    roots = tuple(sorted(((b - disc) / 2.0, (b + disc) / 2.0)))
    mag = abs(a2) * gamma * math.sqrt(max(fourth_moment - 1.0, 0.0) / 2.0)
    return SpikePrediction(locations=(-mag, mag), empirical=roots)
