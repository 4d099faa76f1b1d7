import gc
import itertools
import math
import mmap
import os
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kernelspectra.rng as rngmod
import kernelspectra.simulate as sim
from conftest import sparse_form
from kernelspectra.errors import ConfigError, ConsistencyError, DomainError, SizeCapError
from kernelspectra.hermite import KernelSpec, hermite_eval
from kernelspectra.lgraphs import sample_trace_moment
from kernelspectra.limit_law import LimitLawParams, cdf, support
from kernelspectra.simulate import (
    MAX_MATRIX_SIDE,
    DataMatrixConfig,
    EntryLaw,
    SpectrumSummary,
    build_kernel_matrix,
    decompose_hermite_sum,
    elementary_symmetric,
    ks_distance,
    rank_two_correction,
    remainder_variance,
    sample_data,
    spectrum,
)

from oracles import (
    concentration_probe,
    exact_hermite_split,
    exact_trace_moment,
    recurrence_sums,
    sample_deformed_model,
)


def h3(y):
    return (y**3 - 3 * y) / math.sqrt(6)


def component_matrix(X, d):
    """The kernel matrix of the single-degree kernel h_d."""
    return build_kernel_matrix(X, lambda y: hermite_eval(d, y))


# ---------------------------------------------------------------------------
# data sampling


def test_sample_data_deterministic():
    cfg = DataMatrixConfig(n=50, p=40, seed=123)
    assert np.array_equal(sample_data(cfg), sample_data(cfg))
    assert not np.array_equal(sample_data(cfg), sample_data(cfg, stream=1))


@pytest.mark.parametrize("block", [1, 7, 2**19])
@pytest.mark.parametrize("shape", [(30, 71), (5, 42)])
@pytest.mark.parametrize(
    "values, probs",
    [((-1.0, 1.0), None), ((-0.5, -2.0, 2.0, 0.5), (0.4, 0.1, 0.1, 0.4))],
)
def test_discrete_laws_draw_in_blocks_as_in_one_draw(monkeypatch, block, shape, values, probs):
    # X is drawn in blocks of `block` samples (one block at 2**19), each an
    # index draw of its own; together they are one index draw of all n
    # samples, so no block width moves a bit.  A Rademacher index is drawn
    # with integers(0, 2), which choice(2) draws too.  No command draws a
    # symmetric_discrete law, so no golden hash covers these bits.
    p, n = shape
    spec = "symmetric_rademacher" if probs is None else ("symmetric_discrete", values, probs)
    cfg = DataMatrixConfig(n=n, p=p, entry_law=spec, seed=3)
    gen = rngmod.derive_rng(3, rngmod.STREAM_DATA, 0)
    if probs is None:
        index = gen.integers(0, 2, size=(n, p))
    else:
        index = gen.choice(len(values), size=(n, p), p=probs)
    monkeypatch.setattr(sim, "_MIN_BLOCK_SAMPLES", block)
    monkeypatch.setattr(sim, "_BLOCK_ENTRIES", 0)
    assert np.array_equal(sample_data(cfg), np.take(values, index).T)


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


INVALID_LAWS = {
    "variance-4": ("symmetric_discrete", (-2.0, 2.0), (0.5, 0.5)),
    "asymmetric": ("symmetric_discrete", (-2.0, 0.5), (0.2, 0.8)),
    "unknown": "cauchy",
}


def test_discrete_law_validation():
    ok = ("symmetric_discrete", (-math.sqrt(2), 0.0, math.sqrt(2)), (0.25, 0.5, 0.25))
    cfg = DataMatrixConfig(n=20, p=20, entry_law=ok, seed=0)
    assert cfg.fourth_moment == pytest.approx(2.0)
    for law in INVALID_LAWS.values():
        with pytest.raises(ConfigError):
            DataMatrixConfig(n=20, p=20, entry_law=law)


@pytest.mark.parametrize("law", INVALID_LAWS.values(), ids=INVALID_LAWS.keys())
def test_trace_moments_reject_invalid_laws(law):
    # the trace-moment oracles parse the entry law as DataMatrixConfig does
    with pytest.raises(ConfigError):
        exact_trace_moment(2, 4, 4, [1.0], law)
    with pytest.raises(ConfigError):
        sample_trace_moment(2, 4, 4, [1.0], law, trials=100)


@st.composite
def symmetric_discrete_laws(draw):
    """A symmetric law on +-atoms (and possibly 0), rescaled to variance 1:
    its spec and the closed form of its even moments."""
    atoms = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    zero_weight = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    total = zero_weight + sum(weights)
    mass = [w / total for w in weights]  # mass at +-a, split evenly
    zero_mass = zero_weight / total
    scale = math.sqrt(sum(m * a * a for m, a in zip(mass, atoms)))
    atoms = [a / scale for a in atoms]
    values = [-a for a in atoms] + ([0.0] if zero_mass else []) + atoms
    probs = [m / 2 for m in mass] + ([zero_mass] if zero_mass else []) + [m / 2 for m in mass]

    def even_moment(k):
        return zero_mass * 0.0**k + sum(m * a**k for m, a in zip(mass, atoms))

    return ("symmetric_discrete", tuple(values), tuple(probs)), even_moment


@given(symmetric_discrete_laws(), st.integers(0, 8))
def test_entry_law_moments_match_closed_forms(law_and_moment, k):
    spec, even_moment = law_and_moment
    assert EntryLaw("standard_gaussian").moment(k) == (
        0.0 if k % 2 else math.factorial(k) / (2 ** (k // 2) * math.factorial(k // 2))
    )
    assert EntryLaw("symmetric_rademacher").moment(k) == (0.0 if k % 2 else 1.0)
    got = EntryLaw(spec).moment(k)
    if k % 2:
        assert got == 0.0
    else:
        assert got == pytest.approx(even_moment(k), rel=1e-12)
    if k == 2:
        assert got == pytest.approx(1.0, rel=1e-12)


def test_odd_moments_of_a_discrete_law_are_exactly_zero():
    # listed in this order, the atoms leave np.dot(probs, values**3) at
    # -4.2e-17 instead of cancelling
    law = EntryLaw(("symmetric_discrete", (-0.5, -2.0, 2.0, 0.5), (0.4, 0.1, 0.1, 0.4)))
    for k in (1, 3, 5, 7, 9):
        assert law.moment(k) == 0.0
    assert law.moment(4) == pytest.approx(0.4 * 0.5**4 * 2 + 0.1 * 2.0**4 * 2, rel=1e-15)


def test_entry_law_rejects_negative_moment_order():
    with pytest.raises(ConfigError):
        EntryLaw().moment(-1)


@given(
    st.lists(st.floats(-3.0, 3.0), max_size=8),
    st.integers(0, 5),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_elementary_symmetric_against_combinations(z, kmax, batch, rnd):
    e = elementary_symmetric(np.array(z), kmax)
    for k in range(kmax + 1):
        brute = math.fsum(math.prod(c) for c in itertools.combinations(z, k))
        bound = math.fsum(math.prod(map(abs, c)) for c in itertools.combinations(z, k))
        assert abs(e[k] - brute) <= 1e-13 * bound + 1e-300  # subnormal products: absolute
    # a batch of rows, swept together down the first axis, gives each row's
    # own result exactly
    Z = np.array([[rnd.uniform(-3, 3) for _ in z] for _ in range(batch)])
    batched = elementary_symmetric(Z.T, kmax, shape=(batch,))
    rows = np.stack([elementary_symmetric(row, kmax) for row in Z], axis=1)
    assert np.array_equal(batched, rows)


def test_size_cap():
    with pytest.raises(SizeCapError):
        DataMatrixConfig(n=10, p=MAX_MATRIX_SIDE + 1, seed=0)


# ---------------------------------------------------------------------------
# kernel matrices


def test_linear_kernel_matrix_identity():
    X = sample_data(DataMatrixConfig(n=30, p=20, seed=3))
    K = build_kernel_matrix(X, lambda y: y)
    expected = X @ X.T / 30
    np.fill_diagonal(expected, 0.0)
    assert np.max(np.abs(K - expected)) < 1e-12


def test_kernel_matrix_shape_invariants():
    X = sample_data(DataMatrixConfig(n=25, p=35, seed=4))
    K = build_kernel_matrix(X, h3)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 0.0)


def test_kernel_negation_identities():
    # the Gram matrix is invariant under X -> -X, so K is too; negating
    # the kernel itself negates K entrywise
    X = sample_data(DataMatrixConfig(n=20, p=15, seed=5))
    K = build_kernel_matrix(X, h3)
    assert np.max(np.abs(build_kernel_matrix(-X, h3) - K)) < 1e-12
    K_neg = build_kernel_matrix(X, lambda y: -h3(y))
    assert np.max(np.abs(K_neg + K)) < 1e-12


def test_component_matrix_degree_one():
    X = sample_data(DataMatrixConfig(n=20, p=15, seed=6))
    K1 = component_matrix(X, 1)
    K_lin = build_kernel_matrix(X, lambda y: y)
    assert np.max(np.abs(K1 - K_lin)) < 1e-12


def test_component_matrix_semicircle_esd():
    X = sample_data(DataMatrixConfig(n=1000, p=1000, seed=7))
    for d in (2, 3):
        s = spectrum(component_matrix(X, d))
        assert ks_distance(s, LimitLawParams(0.0, 1.0, 1.0)) < 0.06


def test_column_blocks_cover_the_samples_once():
    # blocks of samples whose width depends on p alone: at least
    # _MIN_BLOCK_SAMPLES, and about _BLOCK_ENTRIES entries, the last one
    # ragged
    for p, n in itertools.product((2, 3, 64, 1000, 2047, 2048, 2049, 25000), (2, 63, 64, 65, 3000)):
        blocks = list(sim._column_blocks(p, n))
        width = max(sim._MIN_BLOCK_SAMPLES, sim._BLOCK_ENTRIES // p)
        assert [j0 for j0, _ in blocks] == [0] + [j1 for _, j1 in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(j1 - j0 == width for j0, j1 in blocks[:-1])
        assert 0 < blocks[-1][1] - blocks[-1][0] <= width


@pytest.mark.parametrize("p, n", [(257, 100), (600, 2000), (1000, 300)])
def test_build_that_gives_x_back_matches_a_build_on_an_intact_copy(p, n):
    # simulate builds from the draw, one block of samples at a time, each
    # given back before the next is drawn; the public builder reads a
    # caller's X in the same blocks, copied out, and leaves X as it was.
    # One block at (257, 100), 10 at (600, 2000) and 3 at (1000, 300)
    cfg = DataMatrixConfig(n=n, p=p, seed=p + n)
    kernel = KernelSpec(evaluator=lambda y: hermite_eval(2, y) + hermite_eval(3, y))
    streamed = sim._kernel_triangle(sim._data_blocks(cfg), p, n, kernel)
    X = sample_data(cfg)
    copy = X.copy()
    K = build_kernel_matrix(X, kernel)
    assert np.array_equal(streamed, np.triu(K))
    assert np.array_equal(X, copy)
    # a strided view of X is a caller's X too
    wide = np.zeros((p, 2 * n))
    wide[:, ::2] = X
    assert np.array_equal(build_kernel_matrix(wide[:, ::2], kernel), K)


@pytest.mark.parametrize("dsyrk_found", [False, True])
def test_non_finite_entry_in_a_later_slab_raises(dsyrk_found, monkeypatch):
    # only the last row's diagonal Gram entry, in the last slab, passes the
    # kernel's cut: every slab before it is built first, from the Gram of
    # numpy's cblas_dsyrk or of its fallback
    if not dsyrk_found:
        monkeypatch.setattr(sim, "_cblas_dsyrk", lambda: None)
    p, n = 300, 100
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=9))
    X[-1] *= 10.0
    calls = []

    def kernel(y):
        calls.append(y.shape)
        return np.where(y > 500.0, np.nan, y)

    with pytest.raises(ConfigError, match="non-finite"):
        build_kernel_matrix(X, kernel)
    assert len(calls) > 1 and sum(rows for rows, _ in calls) == p


@pytest.mark.parametrize("p, n", [(2, 3), (97, 150), (300, 700), (700, 130)])
def test_gram_without_dsyrk_matches_the_dsyrk_gram(p, n, monkeypatch):
    # without numpy's cblas_dsyrk the Gram's blocks go through numpy
    # products over the upper triangle's tiles; both forms agree with
    # numpy's X @ X.T within the rounding of a sum of n products (see
    # test_sweep_gram_matches_the_numpy_gram)
    cfg = DataMatrixConfig(n=n, p=p, seed=p)
    want = sample_data(cfg) @ sample_data(cfg).T / math.sqrt(n)
    bound = np.finfo(float).eps * math.sqrt(n) * np.sqrt(np.outer(np.diag(want), np.diag(want)))
    upper = np.triu(np.ones((p, p), dtype=bool))
    found = sim._scaled_gram(sim._data_blocks(cfg), p, n)
    monkeypatch.setattr(sim, "_cblas_dsyrk", lambda: None)
    fallback = sim._scaled_gram(sim._data_blocks(cfg), p, n)
    for G in (found, fallback):
        assert np.all(np.abs(G - want)[upper] <= bound[upper])
    assert not np.any(found[~upper])  # dsyrk writes the upper triangle alone
    # the fallback also writes below the diagonal of each tile's diagonal
    # block, which the full matrix's mirror pass overwrites
    K = build_kernel_matrix(sample_data(cfg), lambda y: y)
    assert np.array_equal(K, K.T) and not np.any(np.diag(K))
    assert np.array_equal(np.triu(K, 1), np.triu(fallback, 1) / math.sqrt(n))


def test_gram_blocks_must_be_sample_rows():
    with pytest.raises(ConsistencyError, match="C-ordered"):
        sim._scaled_gram(iter([np.ones((4, 3))]), 4, 3)  # a p x w block
    with pytest.raises(ConsistencyError, match="C-ordered"):
        sim._scaled_gram(iter([np.ones((8, 4))[::2]]), 4, 4)


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_small_matrices():
    assert np.allclose(spectrum(np.eye(3)).eigenvalues, [1, 1, 1])
    s = spectrum(np.diag([3.0, -5.0]))
    assert s.spectral_norm == 5.0
    assert s.lambda_max == 3.0
    assert np.allclose(spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues, [1, -1])


def _builder_matrix(p: int, builder=build_kernel_matrix) -> np.ndarray:
    X = sample_data(DataMatrixConfig(n=max(p, 5), p=p, seed=p))
    return builder(X, lambda y: hermite_eval(2, y) + hermite_eval(3, y))


def _triangle_of(X, kernel):
    """simulate's kernel triangle, from a caller's X."""
    return sim._kernel_triangle(sim._blocks_of(X), *X.shape, kernel)


@pytest.mark.parametrize("p", [2, 3, 50, 257, 600])
def test_in_place_spectrum_matches_eigvalsh(p, monkeypatch):
    # the simulate command's solve: dsyevd in the builder's upper triangle,
    # with eigvalsh's bits on the mirrored matrix
    K = _builder_matrix(p)
    want = np.linalg.eigvalsh(K)
    upper = _builder_matrix(p, _triangle_of)
    assert np.array_equal(upper, np.triu(K))
    m = upper.copy()
    assert np.array_equal(sim._eigvalsh_in_place(m), want)
    if sim._lapacke_dsyevd() is not None and p > 2:
        assert not np.array_equal(m, upper)  # solved in m itself
    # without the LAPACKE symbol the solve is eigvalsh, with the same bits
    monkeypatch.setattr(sim, "_lapacke_dsyevd", lambda: None)
    for full in (False, True):
        m = (K if full else upper).copy()
        assert np.array_equal(sim._eigvalsh_in_place(m), want)
        assert np.array_equal(m, K if full else upper)


def test_in_place_solve_rejects_a_layout_it_cannot_work_in():
    # dsyevd gets a bare pointer and a leading dimension, so anything but a
    # writeable, square float64 array with unit column stride and a row
    # stride of at least its side is refused before the call
    K = _builder_matrix(50)
    triangle = _builder_matrix(50, _triangle_of)
    read_only = K.copy()
    read_only.flags.writeable = False
    for m in (np.asfortranarray(K), K.astype(np.float32), K[:, :49].copy(), K[::2, ::2], read_only,
              triangle.T, triangle[:25, ::2], triangle[::-1], np.lib.stride_tricks.as_strided(K, strides=(8, 8))):
        with pytest.raises(ConsistencyError):
            sim._eigvalsh_in_place(m)


def _padded_stride(p: int) -> int:
    """The least s >= p with (s + 1) * 8 a multiple of the page size."""
    return next(s for s in itertools.count(p) if (s + 1) * 8 % mmap.PAGESIZE == 0)


@pytest.mark.parametrize("p", [2, 511, 512, 513, 600])
def test_kernel_triangle_rows_start_on_a_page(p):
    # each row's upper part K[i, i:] starts on a page boundary, from the
    # least padded stride that puts it there; the sweep's huge-page array
    # keeps stride p, since both of its triangles are used
    K = _builder_matrix(p, _triangle_of)
    assert K.shape == (p, p) and K.strides == (8 * _padded_stride(p), 8)
    assert all(K[i, i:].ctypes.data % mmap.PAGESIZE == 0 for i in range(p))
    assert sim._mapped_empty((p, p)).strides == (8 * p, 8)


def _mapping_rss(address: int) -> tuple[int, int, int]:
    """(start, end, Rss in bytes) of the mapping of this process that holds
    address, from /proc/self/smaps."""
    with open("/proc/self/smaps") as smaps:
        found = None
        for line in smaps:
            head = line.split()[0]
            if not head.endswith(":"):  # a mapping's first line: start-end perms ...
                start, end = (int(x, 16) for x in head.split("-"))
                found = (start, end) if start <= address < end else None
            elif found and head == "Rss:":
                return (*found, int(line.split()[1]) * 1024)
    raise AssertionError(f"no mapping holds {address:#x}")


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
@pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE"), reason="needs 4 KB pages on request")
@pytest.mark.parametrize("p", [2, 511, 513, 600, 1000])
def test_kernel_triangle_takes_the_pages_its_stride_predicts(p):
    # K's own mapping holds the pages of its rows' upper parts and no
    # other: ceil((p - i) / entries a page) pages for row i, half a page a
    # row past the entries, where stride p took about a whole one (6.71
    # against 5.81 MiB at p = 1000).  dsyrk writes the upper triangle
    # alone; its fallback writes below the diagonal of each tile's block
    if sim._cblas_dsyrk() is None:
        pytest.skip("the Gram's fallback writes below the diagonal")
    gc.collect()  # no earlier K's mapping lies beside this one
    K = _builder_matrix(p, _triangle_of)
    start, end, rss = _mapping_rss(K.ctypes.data)
    per_page = mmap.PAGESIZE // 8
    assert start == K.ctypes.data
    assert end - start == -(-8 * p * _padded_stride(p) // mmap.PAGESIZE) * mmap.PAGESIZE
    assert rss == sum(-(-(p - i) // per_page) for i in range(p)) * mmap.PAGESIZE


@pytest.mark.parametrize("p", [2, 3, 50, 257, 600])
def test_in_place_spectrum_of_the_padded_triangle_has_eigvalsh_bits(p, monkeypatch):
    # dsyevd reads the padded triangle with its row stride as the leading
    # dimension, and gives eigvalsh's bits on a C-ordered symmetric copy;
    # without the LAPACKE symbol eigvalsh reads the view itself
    want = np.linalg.eigvalsh(np.ascontiguousarray(_builder_matrix(p)))
    K = _builder_matrix(p, _triangle_of)
    assert not K.flags.c_contiguous
    assert np.array_equal(sim._eigvalsh_in_place(K), want)
    monkeypatch.setattr(sim, "_lapacke_dsyevd", lambda: None)
    assert np.array_equal(sim._eigvalsh_in_place(_builder_matrix(p, _triangle_of)), want)


def test_spectrum_leaves_m_as_it_was_unless_asked():
    # named for the removed overwrite keyword: spectrum solves a copy of
    # any m, C- or Fortran-ordered, read-only or float32
    K = _builder_matrix(120)
    m = K.copy()
    want = spectrum(m).eigenvalues
    assert np.array_equal(m, K)
    assert np.array_equal(want, np.linalg.eigvalsh(K)[::-1])
    fortran = np.asfortranarray(K)
    assert np.array_equal(spectrum(fortran).eigenvalues, want)
    assert np.array_equal(fortran, K)
    read_only = K.copy()
    read_only.flags.writeable = False
    assert np.array_equal(spectrum(read_only).eigenvalues, want)
    single = K.astype(np.float32)
    assert np.allclose(spectrum(single).eigenvalues, want, atol=1e-5)
    assert np.array_equal(single, K.astype(np.float32))


def test_spectrum_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ConfigError):
        spectrum(m)


def _test_matrix(kind: str, p: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    if kind == "dense":
        a = gen.standard_normal((p, p))
        return (a + a.T) / 2
    if kind == "repeated_diagonal":
        return np.diag(gen.choice([-2.0, 0.5, 3.0], size=p))
    if kind == "zero":
        return np.zeros((p, p))
    if kind in ("clustered_top", "tiny_gap"):
        # a random rotation of a diagonal whose two (tiny_gap) or two to
        # five (clustered_top) entries at each end lie within a relative
        # width of 1e-14 to 1e-4 (tiny_gap) or 1e-8 to 1e-2 (clustered_top)
        d = np.sort(gen.standard_normal(p))
        top = np.max(np.abs(d)) + 1.0
        if kind == "tiny_gap":
            width, count = 10.0 ** gen.uniform(-14, -4), 2
        else:
            width, count = 10.0 ** gen.uniform(-8, -2), int(gen.integers(2, 6))
        count = min(count, p)
        cluster = top * (1.0 - width * np.linspace(0.0, 1.0, count))
        d[-count:] = cluster[::-1]
        d[:count] = -cluster  # overwrites part of the top cluster when p < 2 * count
        q, _ = np.linalg.qr(gen.standard_normal((p, p)))
        m = (q * d) @ q.T
        return (m + m.T) / 2
    # rank-one spike with balanced +-1/sqrt(s) entries: orthogonal to all-ones
    s = 2 * (p // 2)
    v = np.zeros(p)
    v[gen.permutation(p)[:s]] = np.repeat([1.0, -1.0], s // 2) / math.sqrt(s)
    return 3.0 * np.outer(v, v)


@settings(max_examples=150)
@given(
    p=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(
        [
            "dense",
            "repeated_diagonal",
            "zero",
            "balanced_spike",
            "clustered_top",
            "tiny_gap",
        ]
    ),
)
@example(p=8, seed=0, kind="balanced_spike")  # breaks down at step 2: w is rounding only
# top two eigenvalues 2.7e-7 apart (relative), and the start vector's part
# along the top eigenvector 59x smaller than along the next: the gap-aware
# stop "r^2 / gap <= 1e-15 |theta| and r <= 1e-7 |theta|" returns lambda_max
# 2.7e-7 low.  The Ritz value has converged to the second eigenvalue, and
# the gap to the next Ritz value is not the true gap.
@example(p=60, seed=55, kind="tiny_gap")
# 2.7e-12 apart, start part 20x smaller: the same stop guarded by
# r <= 1e-12 max|Ritz| returns lambda_max 2.7e-12 low
@example(p=80, seed=25, kind="tiny_gap")
def test_top_eigenvalue_matches_eigvalsh(p, seed, kind):
    m = _test_matrix(kind, p, seed)
    ev = np.linalg.eigvalsh(m)
    norm = max(abs(ev[0]), abs(ev[-1]))
    # the top and, through -m, the bottom eigenvalue (as the concentration
    # oracle reads ||K||) on a dense m, and on the sweep's sparse form
    for form in (m, -m):
        want = ev[-1] if form is m else -ev[0]
        for solved in (form, sparse_form(form)):
            assert abs(sim._extreme_eigenvalue(solved) - want) <= 1e-12 * max(1.0, norm)


def test_top_eigenvalue_is_repeatable():
    X = sample_data(DataMatrixConfig(n=400, p=300, seed=9))
    K = build_kernel_matrix(X, h3)
    first = sim._extreme_eigenvalue(K)
    assert sim._extreme_eigenvalue(K) == first
    assert first == pytest.approx(np.linalg.eigvalsh(K)[-1], rel=1e-12)


def test_top_eigenvalue_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(sim, "LANCZOS_MAX_STEPS", 5)
    with pytest.raises(ConsistencyError, match="converge"):
        sim._extreme_eigenvalue(_test_matrix("dense", 60, 1))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_top_eigenvalue_past_double_range_raises(sparse):
    # |m v|^2 overflowed to inf, which passed the invariance test
    # beta <= 1e-15 |m v|, so the first Ritz value came back
    m = 1e160 * _test_matrix("dense", 50, 1)
    with pytest.raises(DomainError, match="overflows"):
        sim._extreme_eigenvalue(sparse_form(m) if sparse else m)


@pytest.mark.parametrize("p", [3, 50])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_extreme_eigenvalue_of_the_zero_matrix_is_zero(p, sparse):
    # m v_1 = 0: the Krylov space is invariant at the first step
    for m in (np.zeros((p, p)), -np.zeros((p, p))):
        assert sim._extreme_eigenvalue(sparse_form(m) if sparse else m) == 0.0


@pytest.mark.parametrize("missing", ["_cblas_dsymv", "_lapacke_dstevr"])
@pytest.mark.parametrize("kind", ["dense", "balanced_spike", "tiny_gap", "zero"])
def test_top_eigenvalue_without_an_openblas_symbol(monkeypatch, missing, kind):
    # without dsymv, products of a symmetric copy of the upper triangle;
    # without dstevr, Ritz pairs from eigh of the dense tridiagonal
    m = _test_matrix(kind, 60, 25)
    ev = np.linalg.eigvalsh(m)
    m[np.tril_indices(60, -1)] = np.nan  # neither path reads the lower triangle
    monkeypatch.setattr(sim, missing, lambda: None)
    for form in (m, np.asfortranarray(m)):  # row- and column-major
        top = sim._extreme_eigenvalue(form)
        assert abs(top - ev[-1]) <= 1e-12 * max(1.0, abs(ev[0]), abs(ev[-1]))


@settings(max_examples=100)
@given(
    p=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    block=st.sampled_from([1, 7, 2**16]),
)
def test_sparse_product_matches_the_dense_product(p, seed, density, block):
    # the bincount sums of the strict upper triangle's triplets, in blocks
    # of any size, and the diagonal, against m @ v
    import kernelspectra.sparse_pca as sp

    gen = np.random.default_rng(seed)
    m = _test_matrix("dense", p, seed) * (gen.random((p, p)) < density)
    m = np.triu(m) + np.triu(m, 1).T
    v = gen.standard_normal(p)
    with mock.patch.object(sp, "_TRIPLET_BLOCK", block):
        got = sparse_form(m).matvec(v)
    assert np.max(np.abs(got - m @ v)) <= 1e-13 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("p", [1, 2, 3, 50])
@pytest.mark.parametrize("kind", ["dense", "zero"])
def test_extreme_eigenvalue_reads_the_upper_triangle_only(p, kind):
    # the sweep writes a dense M_tau's upper triangle only
    m = _test_matrix(kind, p, p)
    ev = np.linalg.eigvalsh(m)
    norm = max(abs(ev[0]), abs(ev[-1]))
    m[np.tril_indices(p, -1)] = np.nan
    assert abs(sim._extreme_eigenvalue(m) - ev[-1]) <= 1e-12 * max(1.0, norm)
    assert abs(-sim._extreme_eigenvalue(-m) - ev[0]) <= 1e-12 * max(1.0, norm)


@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "columns"])
@pytest.mark.parametrize("p", [1, 2, 600])
def test_extreme_eigenvalue_reads_a_padded_view_in_place(p, transposed):
    # the padded view of K that build_kernel_matrix returns (or its
    # transpose) is read with its stride as leading dimension: the bits of
    # the solve of its contiguous copy in the same order (C, or Fortran for
    # the transpose), and no p x p copy during the solve
    import tracemalloc

    if sim._cblas_dsymv() is None:
        pytest.skip("numpy's BLAS has no cblas_dsymv")
    m = sim._mapped_empty((p, p), huge_pages=False)
    m[:] = _test_matrix("dense", p, p)
    m = m.T if transposed else m
    assert m.strides[0 if transposed else 1] == 8 and max(m.strides) > 8 * p
    want = sim._extreme_eigenvalue(np.array(m, order="K"))
    tracemalloc.start()
    try:
        got = sim._extreme_eigenvalue(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * p * p or p < 100


def _spectrum_leaving_m(m):
    """spectrum(m), which must leave m as it was, also when it rejects m."""
    before = np.array(m, copy=True)
    try:
        return spectrum(m)
    finally:
        assert np.array_equal(m, before, equal_nan=True)


# a caller reads lambda_max of its own matrix as spectrum(m).lambda_max,
# under spectrum's checks; "overwrite" is named for the removed keyword,
# whose cases now pin that a rejected m is left as it was
@pytest.mark.parametrize(
    "solver",
    [spectrum, lambda m: spectrum(m).lambda_max, _spectrum_leaving_m],
    ids=["spectrum", "top_eigenvalue", "overwrite"],
)
@pytest.mark.parametrize(
    "m",
    [
        np.ones((2, 3)),
        np.ones(3),
        np.zeros((0, 0)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
        np.array([[0.0, 1j], [-1j, 0.0]]),  # Hermitian, but spectrum is real-only
    ],
    ids=["non-square", "1-d", "empty", "nan", "inf", "asymmetric", "non-hermitian", "complex"],
)
def test_solvers_reject_bad_input(solver, m):
    with pytest.raises(ConfigError):
        solver(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_sparse_check_rejects_bad_input(bad):
    # the sweep's CSR cells get no check but the one _thresholded_sparse
    # makes as it builds them: every kept value is finite
    from kernelspectra.sparse_pca import ThresholdFunction, _thresholded_sparse

    X = sample_data(DataMatrixConfig(n=40, p=30, seed=7))
    g = X @ X.T / math.sqrt(40)
    assert _thresholded_sparse(g, ThresholdFunction(0.5), 40, math.inf) is not None
    for cell in ((3, 20), (5, 5)):  # an off-diagonal and a diagonal entry
        bad_g = g.copy()
        bad_g[cell] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            _thresholded_sparse(bad_g, ThresholdFunction(0.5), 40, math.inf)


def test_ks_synthetic_quantiles():
    p = LimitLawParams(0.0, 1.0, 1.0)
    xs = np.linspace(-2.5, 2.5, 8001)
    k = 400
    quantiles = np.interp((np.arange(k) + 0.5) / k, cdf(p, xs), xs)
    s = SpectrumSummary(eigenvalues=np.sort(quantiles)[::-1])
    assert ks_distance(s, p) <= 1.0 / k + 1e-3


def test_ks_negative_control():
    X = sample_data(DataMatrixConfig(n=500, p=500, seed=8))
    s = spectrum(build_kernel_matrix(X, h3))
    assert ks_distance(s, LimitLawParams(0.0, 1.0, 1.0)) < 0.06
    # doubling nu compares semicircles of radius 2 and 2*sqrt(2); their CDF
    # sup-gap is 1 - F_{2sqrt2}(2) = 1/2 - (1/2 + pi/4)/pi ~ 0.0909
    assert ks_distance(s, LimitLawParams(0.0, 2.0, 1.0)) > 0.08


def test_ks_far_out_eigenvalues():
    # the CDF at -1e8, 0 and 1e8 is 0, 1/2 and 1 up to the eps-tails
    s = SpectrumSummary(eigenvalues=np.array([1e8, 0.0, -1e8]))
    assert ks_distance(s, LimitLawParams(0.0, 1.0, 1.0)) == pytest.approx(1 / 3, abs=1e-12)


def test_ks_rejects_atomic_law():
    s = SpectrumSummary(eigenvalues=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        ks_distance(s, LimitLawParams(1.0, 1.0, 4.0))


# ---------------------------------------------------------------------------
# three-scale decomposition


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


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, derandomize=True)
def test_decomposition_against_brute_force(d, data):
    # q and r against their exact tuple sums, within 1e-12 of the forward-
    # error scale of their float sums: e_d(|z|) for q, and for r the closed
    # form's sum_i e_{d-2-i}(|z|) (P_{i+2} + P_i) in power sums P_i of |z|
    n = data.draw(st.integers(d, 8))
    z = data.draw(st.lists(st.integers(-2**22, 2**22).map(lambda m: m / 2**20), min_size=n, max_size=n))
    dec = decompose_hermite_sum(z, d)
    q, r, _ = exact_hermite_split(z, d)
    a = np.abs(z)
    e, power = elementary_symmetric(a, d), [math.fsum(a**i) for i in range(d + 1)]
    c = math.sqrt(math.factorial(d)) / n ** (d / 2)
    assert abs(dec.q - q) <= 1e-12 * c * e[d]
    assert abs(dec.r - r) <= 1e-12 * c / 2 * sum(e[d - 2 - i] * (power[i + 2] + power[i])
                                                  for i in range(d - 1))


@pytest.mark.parametrize("d", [5, 6])
def test_remainder_on_a_long_vector_matches_exact_arithmetic(d):
    # s, about n^-1 of h_d(S), stays within 1e-10 of its exact value at
    # n = 10000 on the float64 recurrence and power sums
    z = np.random.default_rng(13).standard_normal(10_000)
    s = exact_hermite_split(z.tolist(), d, recurrence_sums)[2]
    assert abs(decompose_hermite_sum(z, d).s - s) <= 1e-10 * abs(s)


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


def partitions(d, largest=None):
    """The integer partitions of d, parts in non-increasing order."""
    if d == 0:
        yield ()
    for k in range(min(d, largest or d), 0, -1):
        for rest in partitions(d - k, k):
            yield (k, *rest)


def chaos_parts(d, n):
    """E[part^2] for each index-multiplicity pattern lam of d in h_d(S),
    S = sum(z)/sqrt(n): #(multisets of pattern lam) d! / (prod lam_i! n^d)."""
    parts = {}
    for lam in partitions(d):
        multisets = math.perm(n, len(lam)) // math.prod(map(math.factorial, Counter(lam).values()))
        parts[lam] = Fraction(multisets * math.factorial(d), math.prod(map(math.factorial, lam)) * n**d)
    return parts


@pytest.mark.parametrize("n", [6, 7, 10, 100, 1600])
def test_remainder_variance_is_the_chaos_sum_past_q_and_r(n):
    # each value is the exact rational, rounded once
    assert remainder_variance(3, n) == float(Fraction(1, n**2))
    assert remainder_variance(4, n) == float(Fraction(7 * n**2 - 6 * n, n**4))
    for d in range(1, 7):
        parts = chaos_parts(d, n)
        assert sum(parts.values()) == 1  # E[h_d(S)^2]
        q, r = parts.pop((1,) * d), parts.pop((2,) + (1,) * (d - 2), 0)
        assert remainder_variance(d, n) == float(sum(parts.values())) == float(1 - q - r)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_decomposition_mean_squares_match_the_chaos_parts(d):
    # the mean squares of q, r and s over 20000 draws, each within 5 of its
    # standard errors of the exact value
    n = 12
    parts = chaos_parts(d, n)
    exact = {"q": parts.pop((1,) * d), "r": parts.pop((2,) + (1,) * (d - 2), 0),
             "s": remainder_variance(d, n)}
    dec = decompose_hermite_sum(np.random.default_rng(60 + d).standard_normal((20000, n)), d)
    for name, value in exact.items():
        sq = getattr(dec, name) ** 2
        se = sq.std() / math.sqrt(sq.size)
        assert abs(sq.mean() - float(value)) <= 5 * se + 1e-28, (name, sq.mean(), float(value))


def test_decomposition_size_error():
    with pytest.raises(SizeCapError):
        decompose_hermite_sum(np.ones(3), 4)
    with pytest.raises(ConfigError):
        decompose_hermite_sum(1.0, 1)


def assert_batch_matches_rows(Z, d):
    """decompose_hermite_sum on a batch equals its per-row 1-D calls bit
    for bit in every field; the 1-D calls return floats."""
    dec = decompose_hermite_sum(Z, d)
    fields = ("q", "r", "s", "h_value")
    for f in fields:
        assert np.shape(getattr(dec, f)) == Z.shape[:-1]
    for idx in np.ndindex(*Z.shape[:-1]):
        row = decompose_hermite_sum(Z[idx], d)
        for f in fields:
            assert type(getattr(row, f)) is float
            batched = np.float64(np.asarray(getattr(dec, f))[idx])
            assert batched.tobytes() == np.float64(getattr(row, f)).tobytes(), (f, idx)


@st.composite
def decomposition_batches(draw):
    """A batch of one or two axes of 1-3 rows, of d to d + 40 samples each,
    and the degree d."""
    d = draw(st.integers(1, 6))
    shape = (*draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)), d + draw(st.integers(0, 40)))
    return draw(hnp.arrays(float, shape, elements=st.floats(-4.0, 4.0, width=64))), d


@given(decomposition_batches())
def test_batched_decomposition_equals_row_calls(case):
    assert_batch_matches_rows(*case)


def test_batched_decomposition_on_the_longdouble_path():
    # n >= 10000 and d >= 5 once forked to long double; the one float64
    # path must give the batch and its rows the same bits there too
    Z = np.random.default_rng(13).standard_normal((2, 10_000))
    assert_batch_matches_rows(Z, 5)


# ---------------------------------------------------------------------------
# rank-two correction


def test_rank_two_disabled_for_odd_kernels():
    X = sample_data(DataMatrixConfig(n=50, p=50, seed=13))
    sp = rank_two_correction(X, 0.0)
    assert sp.locations == () and sp.empirical == ()


def rank_two_matrix(X, a2):
    """The realized rank-two correction matrix itself."""
    p, n = X.shape
    v = (X * X - 1.0).sum(axis=1) / math.sqrt(n)
    ones = np.ones(p)
    return a2 / (n * math.sqrt(2.0)) * (np.outer(v, ones) + np.outer(ones, v))


@pytest.mark.parametrize(
    "p, n",
    # one block of samples, and many with a ragged last one: blocks of
    # 65536 samples at p = 2, 2048 at p = 64, 510 at p = 257, 218 at p = 600
    [(2, 9), (255, 40), (257, 300), (600, 130), (2, 300001), (64, 150001), (257, 4099), (600, 2000)],
)
def test_rank_two_correction_on_row_slabs_keeps_the_one_pass_bits(p, n):
    # the row slabs are the blocks of samples, (w, p) arrays whose rows are
    # samples, and the one pass is simulate's over them: rank_two_correction
    # on X adds sum_j (x_ij^2 - 1) up over the same blocks (_tallied), so
    # its spikes have the bits of the ones simulate reports from the draw
    # that made X, and agree with numpy's one pass over X's rows to rounding
    cfg = DataMatrixConfig(n=n, p=p, seed=17)
    sums = np.zeros(p)
    for block in sim._tallied(sim._data_blocks(cfg), sums):
        assert block.shape[1] == p
    X = sample_data(cfg)
    got = rank_two_correction(X, 1.0)
    assert got == sim._rank_two_spikes(sums, n, 1.0, 3.0)
    assert got.empirical == rank_two_correction(np.asfortranarray(X), 1.0).empirical
    v = (X * X - 1.0).sum(axis=1) / math.sqrt(n)  # numpy's one pass
    assert np.allclose(sums / math.sqrt(n), v, rtol=1e-12, atol=1e-12 * math.sqrt(n))
    v1, vv, a2 = float(v.sum()), float(np.dot(v, v)), 1.0
    b = a2 * math.sqrt(2.0) / n * v1
    c = a2 * a2 / (2.0 * n * n) * (v1 * v1 - p * vv)
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    assert got.empirical == pytest.approx(((b - disc) / 2.0, (b + disc) / 2.0), rel=1e-9, abs=1e-12)
    assert sim._rank_two_spikes(sums, n, 0.0, 3.0).empirical == ()


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


def test_deformed_model_pure_gue_esd():
    params = LimitLawParams(0.0, 1.0, 1.0)
    dm = sample_deformed_model(1000, 1000, params, seed=18)
    s = SpectrumSummary(eigenvalues=np.linalg.eigvalsh(dm.M)[::-1])
    assert ks_distance(s, params) < 0.05


def test_deformed_model_norm_tracks_limit_law():
    params = LimitLawParams(1.0, 2.0, 1.0)
    dm = sample_deformed_model(1000, 1000, params, seed=19)
    target = support(params).norm
    s = SpectrumSummary(eigenvalues=np.linalg.eigvalsh(dm.M)[::-1])
    assert abs(s.spectral_norm - target) < 0.15


# ---------------------------------------------------------------------------
# concentration probe


def test_concentration_probe_ratio_bounded():
    rows = concentration_probe(lambda y: y, [0.25, 1.0, 4.0], n=250, trials=2, seed=20)
    stats = [r["statistic"] for r in rows]
    assert max(stats) / min(stats) < 3.0


def test_concentration_probe_norm_matches_full_spectrum():
    rows = concentration_probe(h3, [0.5, 2.0], n=60, trials=2, seed=3)
    for ridx, row in enumerate(rows):
        cfg = DataMatrixConfig(n=60, p=row["p"], seed=3)
        norms = []
        for t in range(2):
            K = build_kernel_matrix(sample_data(cfg, stream=(ridx, t)), h3)
            norms.append(spectrum(K).spectral_norm)
        assert row["median_norm"] == pytest.approx(np.median(norms), rel=1e-12)


def test_concentration_probe_stable_in_n():
    # the statistic does not grow with n: at most 10% from n = 300 to 600.
    # It falls, as h3's outlier eigenvalues past the edge thin out: medians
    # of 400 draws a size went 2.49 -> 2.33, a ratio of 0.94, near the
    # band's edge.  Medians of 100 trials leave that ratio outside the band
    # in 0.7% of bootstrapped draws, against 32% for medians of three
    rows_a = concentration_probe(h3, [1.0], n=300, trials=100, seed=21)
    rows_b = concentration_probe(h3, [1.0], n=600, trials=100, seed=22)
    a, b = rows_a[0]["statistic"], rows_b[0]["statistic"]
    assert abs(a - b) / a < 0.10


def test_component_sum_matches_free_convolution():
    # K_1 + K_2 + K_3 with unit coefficients has the law of (a=1, nu=3)
    X = sample_data(DataMatrixConfig(n=1000, p=1000, seed=23))
    K = sum(component_matrix(X, d) for d in (1, 2, 3))
    s = spectrum(K)
    assert ks_distance(s, LimitLawParams(1.0, 3.0, 1.0)) < 0.06


def test_rademacher_null_spikes_stay_in_bulk():
    # E x^4 = 1 kills the rank-two spikes of a non-odd kernel; the whole
    # spectrum stays within the bulk window
    cfg = DataMatrixConfig(n=1000, p=1000, entry_law="symmetric_rademacher", seed=24)
    X = sample_data(cfg)
    k23 = lambda y: (y**2 - 1) / math.sqrt(2) + h3(y)
    s = spectrum(build_kernel_matrix(X, k23))
    bulk_edge = 2 * math.sqrt(2.0)
    assert s.spectral_norm <= bulk_edge + 0.3
    assert rank_two_correction(X, 1.0, fourth_moment=cfg.fourth_moment).locations == (0.0, 0.0)
