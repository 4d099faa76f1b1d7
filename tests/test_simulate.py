import itertools
import math
import mmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    sample_data,
    spectrum,
)

from oracles import concentration_probe, exact_trace_moment, sample_deformed_model


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


@pytest.mark.parametrize(
    "law",
    [
        "standard_gaussian",
        "symmetric_rademacher",
        ("symmetric_discrete", (-0.5, -2.0, 2.0, 0.5), (0.4, 0.1, 0.1, 0.4)),
    ],
)
def test_sample_data_into_a_given_array_draws_the_same_bits(law):
    cfg = DataMatrixConfig(n=70, p=30, entry_law=law, seed=8)
    out = np.full((30, 70), np.nan)
    X = sample_data(cfg, stream=(2, 1), out=out)
    assert X is out
    assert np.array_equal(X, sample_data(cfg, stream=(2, 1)))


@pytest.mark.parametrize("block", [1, 7, 2**19])
@pytest.mark.parametrize("shape", [(30, 71), (5, 6, 7)])
@pytest.mark.parametrize(
    "values, probs",
    [((-1.0, 1.0), None), ((-0.5, -2.0, 2.0, 0.5), (0.4, 0.1, 0.1, 0.4))],
)
def test_discrete_laws_draw_in_blocks_as_in_one_draw(monkeypatch, block, shape, values, probs):
    # the index array used to be drawn whole, beside X; a Rademacher index
    # was drawn with integers(0, 2), which choice(2) draws too
    law = EntryLaw("symmetric_rademacher" if probs is None else ("symmetric_discrete", values, probs))
    gen = np.random.default_rng(3)
    if probs is None:
        index = gen.integers(0, 2, size=shape)
    else:
        index = gen.choice(len(values), size=shape, p=probs)
    expected, after = np.take(values, index), gen.standard_normal(4)
    monkeypatch.setattr(sim, "_DRAW_BLOCK", block)
    gen = np.random.default_rng(3)
    out = np.full(shape, np.nan)
    assert law.sample(gen, shape, out=out) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(gen.standard_normal(4), after)
    assert np.array_equal(law.sample(np.random.default_rng(3), shape), expected)


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


def test_gram_slabs_cover_the_rows_once():
    # slabs of _SLAB_ROWS rows, a tail under half a slab joined to the
    # last one, so no slab but a lone one has fewer than half a slab's rows
    for p in range(1, 700):
        slabs = list(sim._gram_slabs(p))
        assert [i0 for i0, _ in slabs] == [0] + [i1 for _, i1 in slabs[:-1]]
        assert slabs[-1][1] == p
        rows = [i1 - i0 for i0, i1 in slabs]
        half = sim._SLAB_ROWS // 2
        assert all(r == 2 * half for r in rows[:-1])
        assert rows[-1] < 3 * half and (len(rows) == 1 or rows[-1] >= half)


@pytest.mark.parametrize("p, n", [(257, 100), (600, 2000), (1000, 300)])
def test_build_that_gives_x_back_matches_a_build_on_an_intact_copy(p, n):
    cfg = DataMatrixConfig(n=n, p=p, seed=p + n)
    X = sample_data(cfg, out=sim._mapped_empty((p, n), disposable=True))
    copy = X.copy()
    kernel = KernelSpec(evaluator=lambda y: hermite_eval(2, y) + hermite_eval(3, y))
    K = build_kernel_matrix(X, kernel)
    # the whole pages of every row went back to the OS, so they read as zeros
    released = p * n * 8 // mmap.PAGESIZE * mmap.PAGESIZE // 8
    assert released > 0 and not np.any(X.reshape(-1)[:released])
    # the public builder leaves X as it was, on the heap or in a mapping
    # that is not disposable
    mapped = sample_data(cfg, out=sim._mapped_empty((p, n)))
    assert np.array_equal(build_kernel_matrix(copy, kernel), K)
    assert np.array_equal(build_kernel_matrix(mapped, kernel), K)
    assert np.array_equal(copy, sample_data(cfg)) and np.array_equal(mapped, copy)
    # a view of a disposable array is a caller's X too
    view_source = sample_data(cfg, out=sim._mapped_empty((p, n), disposable=True))
    build_kernel_matrix(view_source[1:], kernel)
    assert np.array_equal(view_source, copy)


@pytest.mark.parametrize("disposable", [False, True])
def test_non_finite_entry_in_a_later_slab_raises(disposable):
    # only the last row's diagonal Gram entry, in the last slab, passes the
    # kernel's cut: every slab before it is built first
    p, n = 300, 100
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=9), out=sim._mapped_empty((p, n), disposable))
    X[-1] *= 10.0
    assert len(list(sim._gram_slabs(p))) > 1
    calls = []

    def kernel(y):
        calls.append(y.shape)
        return np.where(y > 500.0, np.nan, y)

    with pytest.raises(ConfigError, match="non-finite"):
        build_kernel_matrix(X, kernel)
    assert sum(rows for rows, _ in calls) == p


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


@pytest.mark.parametrize("p", [2, 3, 50, 257, 600])
def test_in_place_spectrum_matches_eigvalsh(p, monkeypatch):
    # the simulate command's solve: dsyevd in the builder's upper triangle,
    # with eigvalsh's bits on the mirrored matrix
    K = _builder_matrix(p)
    want = np.linalg.eigvalsh(K)
    upper = _builder_matrix(p, sim._kernel_triangle)
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
    # dsyevd gets a bare pointer, so anything but a writeable, C-ordered,
    # square float64 array is refused before the call
    K = _builder_matrix(50)
    read_only = K.copy()
    read_only.flags.writeable = False
    for m in (np.asfortranarray(K), K.astype(np.float32), K[:, :49].copy(), K[::2, ::2], read_only):
        with pytest.raises(ConsistencyError):
            sim._eigvalsh_in_place(m)


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


@given(
    st.integers(1, 6),
    st.integers(0, 40),
    st.lists(st.integers(1, 3), min_size=1, max_size=2),
    st.data(),
)
def test_batched_decomposition_equals_row_calls(d, extra, batch, data):
    Z = data.draw(
        hnp.arrays(float, (*batch, d + extra), elements=st.floats(-4.0, 4.0, width=64))
    )
    assert_batch_matches_rows(Z, d)


def test_batched_decomposition_on_the_longdouble_path():
    # n >= 10000 and d >= 5 run the recurrences in long double
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
    # wide X: slabs of one row, of 3 rows and of 127 rows; and 256-row slabs at n = 2000
    [(2, 9), (255, 40), (257, 300), (600, 130), (2, 300001), (64, 150001), (257, 4099), (600, 2000)],
)
def test_rank_two_correction_on_row_slabs_keeps_the_one_pass_bits(p, n):
    X = sample_data(DataMatrixConfig(n=n, p=p, seed=17))
    v = (X * X - 1.0).sum(axis=1) / math.sqrt(n)  # the one-pass form
    v1, vv, a2 = float(v.sum()), float(np.dot(v, v)), 1.0
    b = a2 * math.sqrt(2.0) / n * v1
    c = a2 * a2 / (2.0 * n * n) * (v1 * v1 - p * vv)
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    assert rank_two_correction(X, 1.0).empirical == ((b - disc) / 2.0, (b + disc) / 2.0)


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
    rows_a = concentration_probe(h3, [1.0], n=300, trials=3, seed=21)
    rows_b = concentration_probe(h3, [1.0], n=600, trials=3, seed=22)
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
