import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

import kernelspectra.limit_law as limit_law
from kernelspectra.errors import ConfigError, ConsistencyError, DomainError, SizeCapError
from kernelspectra.limit_law import (
    MAX_DENSITY_POINTS,
    MAX_MOMENT_ORDER,
    LimitLawParams,
    _cubic_coefficients,
    _solve_cubic,
    _support_discriminant,
    cdf,
    density,
    free_cumulants,
    moment,
    stieltjes_grid,
    support,
)

SEMICIRCLE = LimitLawParams(a=0.0, nu=1.0, gamma=1.0)


def stieltjes(z, p):
    """m(z) at one point, from stieltjes_grid, and the residual of the
    defining cubic at m."""
    m = complex(stieltjes_grid(np.array([z]), p)[0])
    c3, c2, c1 = _cubic_coefficients(complex(z), p)
    return m, abs(((c3 * m + c2) * m + c1) * m + 1.0)


def r_transform(z, p):
    """R(z) = -a*(1 - 1/(1 - a*gamma*z)) + gamma*(nu - a^2)*z: the oracle
    whose Taylor coefficients are the free cumulants."""
    z = complex(z)
    denom = 1.0 - p.a * p.gamma * z
    if abs(denom) < 1e-12 * (1.0 + abs(p.a * p.gamma * z)):
        raise DomainError(f"R-transform pole at z = 1/(a*gamma); got z = {z}")
    return -p.a * (1.0 - 1.0 / denom) + p.semicircle_variance * z


@st.composite
def laws(draw):
    """Laws off the Marcenko-Pastur degeneracy: nu - a^2 spans seven decades,
    so near-atomic splits and narrow gaps are drawn as well as broad laws."""
    a = draw(st.floats(-2.0, 2.0))
    excess = 10.0 ** draw(st.floats(-6.0, 1.0))
    gamma = 10.0 ** draw(st.floats(-1.5, 1.2))
    return LimitLawParams(a, a * a + excess, gamma)


def test_stieltjes_decays_like_minus_one_over_z():
    for p in (SEMICIRCLE, LimitLawParams(1.0, 2.0, 3.0), LimitLawParams(-0.5, 1.0, 0.5)):
        m, _ = stieltjes(100j, p)
        assert abs(m - (-1 / 100j)) < 1e-3 * abs(m)


def test_stieltjes_semicircle_center():
    # semicircle density at 0 is 1/pi, so Im m(0 + i eps) -> 1
    m, _ = stieltjes(0.0 + 1e-6j, SEMICIRCLE)
    assert m.imag == pytest.approx(1.0, abs=1e-3)


def test_stieltjes_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        stieltjes(1.0 - 0.1j, SEMICIRCLE)
    with pytest.raises(DomainError):
        stieltjes(1.0, SEMICIRCLE)


@settings(max_examples=1000)
@given(laws(), st.floats(-10.0, 10.0), st.floats(-6.0, 1.0))
def test_herglotz_property_randomized(p, x, log_eta):
    m, residual = stieltjes(complex(x, 10.0**log_eta), p)
    assert m.imag > 0
    assert residual < 1e-10


def test_grid_matches_scalar_path():
    # oracle: the companion-matrix roots of the same cubic, upper root taken
    p = LimitLawParams(0.8, 1.5, 2.0)
    zs = np.linspace(-6, 6, 101) + 1e-5j
    grid = stieltjes_grid(zs, p)
    for i in (0, 17, 50, 83, 100):
        roots = np.roots([*_cubic_coefficients(zs[i], p), 1.0])
        assert grid[i] == pytest.approx(roots[np.argmax(roots.imag)], abs=1e-10)


@pytest.mark.parametrize("block", [1, 7, 4096, 10**6])
def test_stieltjes_grid_in_blocks_keeps_the_bits_of_one_solve(block, monkeypatch):
    # every point's cubic is solved on its own, so the block size changes
    # no bit, on a line and on a 2-D grid with a ragged last block
    law = LimitLawParams(a=1.0, nu=2.0, gamma=0.5)
    xs = np.linspace(-4.0, 6.0, 10001)
    zs = np.concatenate([xs + 1e-7j, xs[:999] + 0.5j]).reshape(11, 1000)
    roots = _solve_cubic(*_cubic_coefficients(zs, law))
    want = np.take_along_axis(roots, np.argmax(roots.imag, axis=0)[None], axis=0)[0]
    monkeypatch.setattr(limit_law, "_GRID_BLOCK", block)
    assert np.array_equal(stieltjes_grid(zs, law), want)
    assert np.array_equal(stieltjes_grid(zs[0], law), want[0])


def test_density_points_over_the_cap_raise_size_cap_error():
    xs = np.broadcast_to(0.0, (MAX_DENSITY_POINTS + 1,))  # no memory behind it
    with pytest.raises(SizeCapError):
        density(SEMICIRCLE, xs)


def test_density_semicircle_center():
    rho = density(SEMICIRCLE, np.array([0.0]), epsilon=1e-6)
    assert rho[0] == pytest.approx(1 / math.pi, abs=1e-3)


def test_density_scaled_semicircle():
    # gamma*nu = 4: radius 4 semicircle has density 1/(2 pi) at the center
    rho = density(LimitLawParams(0.0, 1.0, 4.0), np.array([0.0]), epsilon=1e-6)
    assert rho[0] == pytest.approx(1 / (2 * math.pi), abs=1e-3)


def test_density_vanishes_outside_support():
    for p in (SEMICIRCLE, LimitLawParams(1.0, 3.0, 2.0)):
        edge = support(p).norm
        rho = density(p, np.array([edge + 1.0, -edge - 1.0]))
        assert np.all(rho < 1e-4)


def test_density_integrates_to_one():
    for p in (SEMICIRCLE, LimitLawParams(0.7, 1.1, 3.0), LimitLawParams(-1.0, 2.5, 0.3)):
        sup = support(p)
        xs = np.linspace(sup.min_edge - 0.5, sup.max_edge + 0.5, 6001)
        assert np.trapezoid(density(p, xs), xs) == pytest.approx(1.0, abs=1e-3)


def test_support_semicircle():
    sup = support(SEMICIRCLE)
    assert len(sup.intervals) == 1
    assert sup.min_edge == pytest.approx(-2.0, abs=1e-8)
    assert sup.max_edge == pytest.approx(2.0, abs=1e-8)
    assert sup.norm == pytest.approx(2.0, abs=1e-8)


def test_support_shifted_marcenko_pastur():
    sup = support(LimitLawParams(1.0, 1.0, 1.0))
    assert sup.intervals == ((-1.0, 3.0),)
    assert sup.norm == 3.0


def test_support_wide_semicircle():
    sup = support(LimitLawParams(0.0, 2.0, 10.0))
    assert sup.max_edge == pytest.approx(2 * math.sqrt(20), abs=1e-8)
    assert sup.min_edge == pytest.approx(-2 * math.sqrt(20), abs=1e-8)


def test_support_atom_case():
    sup = support(LimitLawParams(1.0, 1.0, 4.0))
    assert sup.atom_location == pytest.approx(-1.0)
    assert sup.atom_mass == pytest.approx(0.75)
    assert sup.intervals[0] == (-1.0, -1.0)
    assert sup.intervals[1] == (0.0, 8.0)
    assert sup.norm == 8.0


def test_support_single_interval_when_gamma_at_most_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(-1.5, 1.5)
        nu = a * a + rng.uniform(0.01, 2.0)
        gamma = rng.uniform(0.05, 1.0)
        assert len(support(LimitLawParams(a, nu, gamma)).intervals) == 1
    # there is no atom at -a for gamma <= 1: counting |a| = 6.6e87 for it in
    # the root window made the window overflow, a DomainError.  The
    # Marcenko-Pastur part is about 5.6e-32 wide, so the edges are the
    # semicircle's, +-2 sqrt(gamma (nu - a^2)) = +-5.2574e13
    law = LimitLawParams(-6.575849527924286e87, 3.877037770241302e265, 1.7823031552395505e-239)
    edge = 2 * math.sqrt(law.semicircle_variance)
    assert support(law).intervals == ((pytest.approx(-edge, rel=1e-12), pytest.approx(edge, rel=1e-12)),)


def test_support_two_intervals_near_degeneracy():
    # a strong MP component with a whisper of semicircle smearing splits
    # the spectrum: the atom at -a fattens into a second interval
    sup = support(LimitLawParams(1.0, 1.02, 4.0))
    assert len(sup.intervals) == 2
    assert sup.intervals[0][0] < -1.0 < sup.intervals[0][1] < sup.intervals[1][0]


def test_support_splits_off_a_narrow_interval():
    # half of the mass sits in [-1.002, -0.998]; a 2000-point scan missed it
    sup = support(LimitLawParams(1.0, 1.0 + 1e-6, 2.0))
    assert len(sup.intervals) == 2
    assert sup.min_edge == pytest.approx(-1.002, abs=1e-5)
    assert sup.intervals[0][1] == pytest.approx(-0.998, abs=1e-5)


def test_support_finds_a_narrow_gap():
    sup = support(LimitLawParams(-0.5402433251001955, 0.31572191471686284, 3.0352727974143043))
    assert len(sup.intervals) == 2
    assert 0.1310 < sup.intervals[0][1] < sup.intervals[1][0] < 0.1339


@pytest.mark.parametrize("a, nu, edge", [(0.0, 1e-30, 2e-15), (1e-100, 1e-100, 2e-50)])
def test_support_of_a_tiny_law(a, nu, edge):
    # an absolute margin on the root window swamped edges below about 1e-13
    sup = support(LimitLawParams(a, nu, 1.0))
    assert sup.intervals == ((pytest.approx(-edge, rel=1e-12), pytest.approx(edge, rel=1e-12)),)


@given(laws())
def test_support_edges_are_discriminant_sign_changes(p):
    sup = support(p)
    edges = [x for iv in sup.intervals for x in iv]
    widths = np.diff(edges)
    assert np.all(widths > 0)
    # every edge is a sign change, probed well inside its neighbouring pieces
    delta = 1e-3 * float(np.min(widths))
    minus = _support_discriminant(np.array(edges) - delta, p)
    plus = _support_discriminant(np.array(edges) + delta, p)
    assert np.all(np.sign(minus) == -np.sign(plus)) and np.all(minus != 0)

    # With eps = 1e-6 d^2, the smoothed density at distance d from all mass
    # is at most eps / (pi d^2) = 1e-6 / pi; mid-interval it is far above.
    def smoothed_at_midpoint(lo, hi):
        d = 0.5 * (hi - lo)
        return density(p, np.array([lo + d]), epsilon=1e-6 * d * d)[0]

    gaps = [(hi, lo) for (_, hi), (lo, _) in zip(sup.intervals, sup.intervals[1:])]
    span = edges[-1] - edges[0]
    outside = gaps + [(edges[0] - span, edges[0]), (edges[-1], edges[-1] + span)]
    assert all(smoothed_at_midpoint(lo, hi) <= 1.000001e-6 / math.pi for lo, hi in outside)
    assert all(smoothed_at_midpoint(lo, hi) > 1e-3 / math.pi for lo, hi in sup.intervals)


def test_support_reflection():
    for (a, nu, g) in ((1.0, 2.0, 1.0), (0.7, 0.6, 4.0), (1.3, 2.0, 0.4)):
        plus = support(LimitLawParams(a, nu, g))
        minus = support(LimitLawParams(-a, nu, g))
        assert minus.max_edge == pytest.approx(-plus.min_edge, abs=1e-9)
        assert minus.min_edge == pytest.approx(-plus.max_edge, abs=1e-9)


def test_norm_continuity_away_from_degeneracy():
    base = LimitLawParams(0.9, 1.7, 2.5)
    ref = support(base).norm
    for da, dnu, dg in itertools.product((-1e-4, 1e-4), repeat=3):
        got = support(LimitLawParams(base.a + da, base.nu + dnu, base.gamma + dg)).norm
        assert abs(got - ref) < 1e-3


def test_params_from_numpy_scalars_fail_typed_without_a_warning():
    # a * a of two numpy floats warned of an overflow in the check before
    # it raised; the three are stored as Python floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="no kernel realizes"):
            LimitLawParams(np.float64(1e200), np.float64(1e300), 1.0)
    law = LimitLawParams(np.float64(0.5), np.float32(2.0), np.int64(3))
    assert [type(v) for v in (law.a, law.nu, law.gamma)] == [float] * 3
    assert (law.a, law.nu, law.gamma) == (0.5, 2.0, 3.0)


def test_params_validation():
    with pytest.raises(ConfigError):
        LimitLawParams(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        LimitLawParams(0.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        LimitLawParams(2.0, 1.0, 1.0)  # nu < a^2
    for bad in ((math.nan, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, 1.0, math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            LimitLawParams(*bad)


def test_support_without_an_edge_raises_consistency_error(monkeypatch):
    # a discriminant with no real root in the window: no edge survives
    monkeypatch.setattr(limit_law, "_discriminant_polynomial", lambda p: np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ConsistencyError, match="no support edge"):
        support(LimitLawParams(1.0, 2.0, 1.0))


def test_r_transform_examples():
    p = LimitLawParams(1.0, 2.0, 3.0)
    assert r_transform(0.0, p) == 0.0
    # derivative at 0 equals the second cumulant gamma*nu
    h = 1e-6
    deriv = (r_transform(h, p) - r_transform(-h, p)) / (2 * h)
    assert deriv == pytest.approx(p.gamma * p.nu, rel=1e-6)
    # a = 0: exactly linear
    p0 = LimitLawParams(0.0, 1.5, 2.0)
    for z in (0.3, -1.2, 0.05 + 0.4j):
        assert r_transform(z, p0) == pytest.approx(p0.gamma * p0.nu * z, abs=1e-14)
    with pytest.raises(DomainError):
        r_transform(1 / (p.a * p.gamma), p)


def test_free_cumulants_closed_form():
    got = free_cumulants(LimitLawParams(1.0, 2.0, 3.0), 4)
    assert np.allclose(got, [0.0, 6.0, 9.0, 27.0])
    got0 = free_cumulants(LimitLawParams(0.0, 1.5, 2.0), 6)
    assert np.allclose(got0, [0.0, 3.0, 0.0, 0.0, 0.0, 0.0])


def test_free_cumulants_match_r_transform_series():
    # oracle: Taylor coefficients of R by a Cauchy contour integral
    p = LimitLawParams(0.8, 1.4, 2.0)
    radius = 0.25 / (abs(p.a) * p.gamma)
    ts = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    ring = radius * np.exp(1j * ts)
    vals = np.array([r_transform(z, p) for z in ring])
    kap = free_cumulants(p, 8)
    for l in range(1, 9):
        coef = np.mean(vals / ring ** (l - 1))  # coefficient of z^{l-1}
        assert coef.real == pytest.approx(kap[l - 1], abs=1e-10)
        assert abs(coef.imag) < 1e-10


def test_cumulant_additivity_of_free_components():
    # The law is the free convolution of an a-scaled centered MP law and a
    # semicircle law; cumulants must add, term by term.
    p = LimitLawParams(1.2, 3.0, 2.5)
    total = free_cumulants(p, 10)
    mp_part = np.array(
        [0.0] + [p.a**l * p.gamma ** (l - 1) for l in range(2, 11)]
    )
    sc_part = np.zeros(10)
    sc_part[1] = p.gamma * (p.nu - p.a**2)
    assert np.max(np.abs(total - (mp_part + sc_part))) < 1e-12


def _crossing(block_a, block_b):
    return any(
        a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2
        for a1, a2 in itertools.combinations(block_a, 2)
        for b1, b2 in itertools.combinations(block_b, 2)
    )


def _all_set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for sub in _all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sorted([first] + sub[i])] + sub[i + 1 :]
        yield [[first]] + sub


def brute_force_noncrossing(l):
    out = set()
    for part in _all_set_partitions(list(range(1, l + 1))):
        if any(_crossing(x, y) for x, y in itertools.combinations(part, 2)):
            continue
        out.add(tuple(sorted(tuple(b) for b in part)))
    return out


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_nc_partitions_against_brute_force(l):
    assert len(brute_force_noncrossing(l)) == math.comb(2 * l, l) // (l + 1)


def test_nc_pair_partitions_at_l4():
    pairings = [
        part for part in brute_force_noncrossing(4) if all(len(b) == 2 for b in part)
    ]
    assert sorted(pairings) == [
        (((1, 2), (3, 4))),
        (((1, 4), (2, 3))),
    ]


def test_moment_order_cap():
    with pytest.raises(SizeCapError):
        moment(SEMICIRCLE, MAX_MOMENT_ORDER + 1)
    with pytest.raises(SizeCapError):
        moment(SEMICIRCLE, 0)


@functools.cache
def _block_sizes(l):
    return [[len(b) for b in part] for part in sorted(brute_force_noncrossing(l))]


def _partition_sum(p, l):
    """Kahan-summed free-cumulant products over the non-crossing partitions."""
    kap = free_cumulants(p, l)
    total = comp = 0.0
    for sizes in _block_sizes(l):
        y = math.prod(kap[s - 1] for s in sizes) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


@given(laws(), st.integers(1, 10))
def test_moment_matches_partition_sum(p, l):
    # 1e-290 absorbs the roundoff of cumulants that a tiny |a| makes subnormal
    expected = _partition_sum(p, l)
    assert abs(moment(p, l) - expected) <= 1e-13 * abs(expected) + 1e-290


def test_semicircle_moments_are_catalan_to_the_cap():
    for k in range(1, MAX_MOMENT_ORDER // 2 + 1):
        catalan = math.comb(2 * k, k) // (k + 1)
        assert moment(SEMICIRCLE, 2 * k) == pytest.approx(catalan, rel=1e-13)
        assert moment(SEMICIRCLE, 2 * k - 1) == 0.0


def test_moment_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        moment(LimitLawParams(1e3, 1e7, 1e3), MAX_MOMENT_ORDER)
    # a^3 and gamma^2 as Python float powers raised an OverflowError
    for law in (LimitLawParams(1e150, 1e300, 1.0), LimitLawParams(1.0, 2.0, 1e300)):
        with pytest.raises(DomainError, match="overflows"):
            moment(law, 3)


def test_cumulants_in_range_with_powers_out_of_range():
    # gamma^3 overflows and a^4 underflows, while kappa_4 ~ 1e-567 is 0.0
    # in double: the product a**l * gamma**(l-1) raised "overflows"
    law = LimitLawParams(2.7e-235, 1.0, 8.6e123)
    kap = free_cumulants(law, 6)
    assert list(kap[2:]) == [0.0, 0.0, 0.0, 0.0]
    assert moment(law, 4) == pytest.approx(2 * (8.6e123) ** 2, rel=1e-15)
    # a power that underflows while the cumulant is a normal double
    law = LimitLawParams(1e-110, 1.0, 1e100)
    assert law.a**3 == 0.0
    assert free_cumulants(law, 3)[2] == pytest.approx(1e-130, rel=1e-15)
    assert free_cumulants(LimitLawParams(-1e-110, 1.0, 1e100), 3)[2] == pytest.approx(-1e-130, rel=1e-15)


def test_support_window_past_double_range_is_a_domain_error():
    # |x| < 1e300: bound^4 overflows, where np.roots raised a LinAlgError.
    # The law cannot be solved at the window's scale, where nu would leave
    # the doubles
    law = LimitLawParams(-1.0, 2.0, 1e300)
    with pytest.raises(DomainError, match="overflows"):
        support(law)


# laws of unit scale: a Marcenko-Pastur law with its atom, a law of two
# intervals, a semicircle and three broad laws
UNIT_SCALE_LAWS = [
    (0.5, 0.25, 2.0), (0.5, 0.2501, 4.0), (0.5, 0.2625, 0.3), (0.0, 0.7, 1.0), (0.3, 0.5, 2.0), (-0.2, 0.3, 0.5),
]


@pytest.mark.parametrize("k", [-500, -400, -221, -80, 80, 221, 400, 500])
def test_support_past_the_unit_scale_band_obeys_the_scaling_law(k):
    # (a 2^k, nu 4^k, gamma) has the support of (a, nu, gamma) times 2^k:
    # at tau = 30 the sweep's null law, near k = -221, found no edge, and a
    # law near k = 293 overflowed its window.  Past 2^64 either way the
    # support is solved at the scale of its window, so scales 2^k and
    # 2^(k+1) give the same edges to the bit, and those of the law at unit
    # scale to rounding
    for a, nu, gamma in UNIT_SCALE_LAWS:
        want = support(LimitLawParams(a, nu, gamma))
        got, twice = (
            support(LimitLawParams(math.ldexp(a, j), math.ldexp(nu, 2 * j), gamma)) for j in (k, k + 1)
        )
        assert twice.intervals == tuple((2.0 * lo, 2.0 * hi) for lo, hi in got.intervals)
        assert [math.ldexp(x, -k) for iv in got.intervals for x in iv] == pytest.approx(
            [x for iv in want.intervals for x in iv], rel=1e-15, abs=0.0
        )
        assert got.atom_location == (None if want.atom_location is None else math.ldexp(want.atom_location, k))
        assert got.atom_mass == twice.atom_mass == want.atom_mass


def test_support_of_the_sweeps_null_law_at_tau_30():
    # c3 = a gamma^2 (nu - a^2) = 3.3e-263, whose square underflowed: no
    # edge was found.  The law is a semicircle of radius 2 sqrt(nu) to the bit
    law = LimitLawParams(9.622262125283604e-130, 3.409394119483274e-134, 1.0)
    edge = 2.0 * math.sqrt(law.nu)
    assert support(law).intervals == ((-edge, edge),)
    assert edge == 3.69290894525347e-67


def test_support_of_a_law_past_2_to_the_64():
    # |x| < 5.7e88: bound^4 overflowed, so support raised DomainError.  At
    # gamma = 2 the atom at -a = 6.6e87 is part of the support
    a = -6.575849527924286e87
    sup = support(LimitLawParams(a, 2 * a * a, 2.0))
    assert sup.intervals == ((-3.5533717366511235e88, 2.2382018310662686e88),)
    assert sup.atom_location is None


def test_support_whose_newton_iterate_leaves_the_doubles_is_a_domain_error():
    # the window reaches the Marcenko-Pastur piece at a gamma = -6.8e41,
    # while the law's mass sits within 1e-17 of 0; a Newton step from the
    # double root there threw an iterate to -3.4e56, where the direct form
    # of the discriminant overflowed, and support returned the far piece
    # alone, [-6.78e41, -6.78e41], with two RuntimeWarnings
    law = LimitLawParams(-2.1510262889885042e-247, 5e-324, 3.1504061651249494e288)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            support(law)


def test_moment_closed_forms():
    p = LimitLawParams(1.1, 2.3, 1.7)
    g, nu, a = p.gamma, p.nu, p.a
    assert moment(p, 1) == 0.0
    assert moment(p, 2) == pytest.approx(g * nu, rel=1e-14)
    assert moment(p, 3) == pytest.approx(a**3 * g**2, rel=1e-14)
    # two non-crossing pairings contribute kappa_2^2; the single block kappa_4
    assert moment(p, 4) == pytest.approx(2 * g**2 * nu**2 + a**4 * g**3, rel=1e-14)


def test_moments_match_density_integrals():
    for p in (
        SEMICIRCLE,
        LimitLawParams(1.0, 2.0, 1.0),
        LimitLawParams(0.6, 1.0, 3.0),
        LimitLawParams(-0.8, 1.5, 0.5),
    ):
        sup = support(p)
        xs = np.linspace(sup.min_edge - 0.2, sup.max_edge + 0.2, 20001)
        rho = density(p, xs, epsilon=1e-7)
        scale = max(1.0, sup.norm)
        for l in range(1, 9):
            numeric = float(np.trapezoid(rho * xs**l, xs))
            assert moment(p, l) == pytest.approx(numeric, abs=1e-4 * scale**l)


def _cosine_density(p, lo, hi, points=2001):
    """Density on a grid over [lo, hi] that is dense at both ends, at an
    epsilon scaled to the width."""
    xs = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, points)))
    return xs, density(p, xs, epsilon=1e-11 * (hi - lo))


def _dip_cut_pieces(p, points=2001):
    """(xs, rho) grids that tile the support in order, for quadrature.

    Drawn laws have components 1e-3 wide and near-gaps where the density
    dips almost to 0, which one grid across the whole support does not
    resolve.  So each support interval is cut at the dips a first grid
    shows, and each piece gets its own grid, dense at its ends: at the
    square-root edges and at the dips."""
    pieces = []
    for lo, hi in support(p).intervals:
        if hi <= lo:
            continue
        xs, rho = _cosine_density(p, lo, hi)
        inner = rho[1:-1]
        dips = (inner < rho[:-2]) & (inner <= rho[2:]) & (inner < 0.5 * rho.max())
        cuts = [lo, *xs[1:-1][dips], hi]
        pieces += [_cosine_density(p, a, b, points) for a, b in zip(cuts[:-1], cuts[1:])]
    return pieces


@given(laws())
@example(LimitLawParams(1.0, 2.0, 7.9968344565068605))  # dips to 0.0036 near x = 4
def test_moments_match_density_integrals_over_drawn_laws(p):
    """Criterion 4's rule: for l <= 6 the density integral of x^l, plus any
    atom, matches moment(p, l) to 1e-4 relative to max(|m_l|, 0.05 norm^l),
    integrated piece by piece over `_dip_cut_pieces`."""
    sup = support(p)
    numeric = np.zeros(6)
    for xs, rho in _dip_cut_pieces(p):
        numeric += [np.trapezoid(rho * xs**l, xs) for l in range(1, 7)]
    if sup.atom_mass:
        numeric += [sup.atom_mass * sup.atom_location**l for l in range(1, 7)]
    for l in range(1, 7):
        expected = moment(p, l)
        assert abs(expected - numeric[l - 1]) < 1e-4 * max(abs(expected), 0.05 * sup.norm**l)


@given(laws())
@example(LimitLawParams(1.0, 2.0, 7.9968344565068605))
@example(LimitLawParams(1.0, 1.000001, 2.0))  # half the mass in a component 4e-3 wide
@example(LimitLawParams(0.0, 1.08e-6, 1.0))  # support 4e-3 wide
@example(LimitLawParams(1.0, 1.000001, 10.0))  # 0.9 of the mass in a component 0.012 wide
@example(LimitLawParams(1.0, 1.00001, 1.0))  # a near-gap by -1
@settings(max_examples=30)
def test_cdf_matches_the_dip_cut_quadrature(p):
    """The closed-form CDF agrees with the cumulative Simpson rule over
    `_dip_cut_pieces` at 8001 points a piece to 1e-6, rises monotonically,
    and leaves below 1e-8 of mass outside the support widened by its width
    on each side.  At 2001 points Simpson is off by up to 1.3e-6 next to a
    near-gap, and the trapezoid rule by up to 1.5e-5.

    Smoothing moves the CDF by about (eps / pi) Re m(x), and next to a
    narrow component |Re m| grows like its mass over its width, so eps is
    1e-9 times the narrowest support interval's width."""
    sup = support(p)
    width = sup.max_edge - sup.min_edge
    eps = 1e-9 * min(hi - lo for lo, hi in sup.intervals)
    xs, oracle, below = [], [], 0.0
    for x, rho in _dip_cut_pieces(p, points=8001):
        xs.append(x)
        oracle.append(below + cumulative_simpson(rho, x=x, initial=0.0))
        below = oracle[-1][-1]
    xs, oracle = np.concatenate(xs), np.concatenate(oracle)
    fx = cdf(p, xs, epsilon=eps)
    assert np.max(np.abs(fx - oracle)) < 1e-6
    assert np.all(np.diff(fx) >= 0.0)
    lo, hi = cdf(p, [sup.min_edge - width, sup.max_edge + width], epsilon=eps)
    assert lo < 1e-8 and hi > 1 - 1e-8


def test_cdf_of_marcenko_pastur_with_an_atom():
    # nu = a^2 and gamma = 2: half the mass sits on the atom at -a
    p = LimitLawParams(1.0, 1.0, 2.0)
    sup = support(p)
    lo, hi = cdf(p, [sup.min_edge - 1.0, sup.max_edge + 1.0])
    assert hi - lo - sup.atom_mass == pytest.approx(1 / p.gamma, abs=1e-5)


def test_cdf_far_out_is_the_cauchy_tail():
    # the eps-smoothed law puts eps / (pi |x|) of its mass beyond a far |x|
    eps = 1e-6
    tail = eps / (math.pi * 1e8)
    for p in (SEMICIRCLE, LimitLawParams(1.5, 2.5, 3.0), LimitLawParams(1.0, 1.0, 2.0)):
        lo, hi = cdf(p, [-1e8, 1e8], epsilon=eps)
        assert lo == pytest.approx(tail, rel=1e-6)
        assert 1.0 - hi == pytest.approx(tail, abs=1e-15)


def test_cdf_checks_epsilon_and_the_point_cap():
    with pytest.raises(DomainError):
        cdf(SEMICIRCLE, [0.0], epsilon=0.0)
    with pytest.raises(SizeCapError):
        cdf(SEMICIRCLE, np.broadcast_to(0.0, (MAX_DENSITY_POINTS + 1,)))


def test_sign_property():
    # the sign of a pushes the support its way: for a >= 0 the top edge
    # dominates in magnitude, for a <= 0 the bottom edge does
    params = [LimitLawParams(a, 1.0, 1.0) for a in (1.0, 0.0, -1.0)]
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(-2, 2)
        params.append(LimitLawParams(a, a * a + rng.uniform(0.05, 2), rng.uniform(0.1, 6)))
    for p in params:
        sup = support(p)
        slack = 1e-9 * max(1.0, sup.norm)
        if p.a >= 0:
            assert sup.max_edge + slack >= -sup.min_edge, p
        if p.a <= 0:
            assert -sup.min_edge + slack >= sup.max_edge, p
