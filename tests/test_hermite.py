import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelspectra.cli import parse_kernel
from kernelspectra.errors import ConfigError, SizeCapError
from kernelspectra.hermite import (
    HORNER_MAX_DEGREE,
    MAX_DEGREE,
    MAX_QUAD_ORDER,
    KernelExpansion,
    KernelSpec,
    build_quadrature,
    hermite_eval,
    hermite_sum_kernel,
    kernel_moments,
    project_kernel,
)
from kernelspectra.simulate import DataMatrixConfig, build_kernel_matrix, sample_data
from kernelspectra.sparse_pca import ThresholdFunction


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


CLOSED_FORMS = {
    0: lambda x: np.ones_like(x),
    1: lambda x: x,
    2: lambda x: (x**2 - 1) / math.sqrt(2),
    3: lambda x: (x**3 - 3 * x) / math.sqrt(6),
}


def test_eval_matches_closed_forms_pointwise():
    xs = np.linspace(-4, 4, 41)
    for d, f in CLOSED_FORMS.items():
        got = hermite_eval(d, xs)
        assert np.max(np.abs(got - f(xs))) < 1e-12


def test_eval_examples():
    # h_2(sqrt(2)) = (2 - 1)/sqrt(2)
    assert hermite_eval(2, math.sqrt(2)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # odd polynomials vanish at 0
    for d in (1, 3, 5, 7):
        assert hermite_eval(d, 0.0) == 0.0
    # the monic cubic at 2: sqrt(3!) h_3(2) = x^3 - 3x = 8 - 6
    assert math.sqrt(6) * hermite_eval(3, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_monic_orthonormal_scaling():
    # sqrt(d!) h_d is the monic probabilists' polynomial He_d
    xs = np.linspace(-3, 3, 13)
    for d in range(8):
        monic = np.polynomial.hermite_e.hermeval(xs, [0.0] * d + [1.0])
        scaled = math.sqrt(math.factorial(d)) * hermite_eval(d, xs)
        assert np.allclose(scaled, monic, atol=1e-10)
    assert np.allclose(math.sqrt(6) * hermite_eval(3, xs), xs**3 - 3 * xs, atol=1e-12)


def test_eval_rejects_bad_args():
    with pytest.raises(ConfigError):
        hermite_eval(-1, 0.0)


def test_quadrature_normal_moments():
    rule = build_quadrature(10)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert rule.weights @ rule.nodes**2 == pytest.approx(1.0, abs=1e-12)
    assert rule.weights @ rule.nodes**4 == pytest.approx(3.0, abs=1e-12)
    assert rule.weights @ rule.nodes == pytest.approx(0.0, abs=1e-12)


def test_quadrature_exact_through_degree_2n_minus_1():
    rule = build_quadrature(12)
    for k in range(0, 24):
        exact = 0.0 if k % 2 else float(double_factorial(k - 1))
        # cancellation scale: odd moments are sums of +-|x|^k pairs
        scale = rule.weights @ np.abs(rule.nodes) ** k
        assert rule.weights @ rule.nodes**k == pytest.approx(exact, abs=1e-13 * max(1.0, scale))


def test_quadrature_rejects_order_zero():
    with pytest.raises(ConfigError):
        build_quadrature(0)


def _decimal_polish(order, x):
    """A node of the order-point rule, polished from x by Newton's method in
    40-digit decimal arithmetic on the orthonormal recurrence, and its
    weight 1 / (order h_{order-1}^2): an oracle independent of both rules."""
    with localcontext() as ctx:
        ctx.prec = 40
        roots = [Decimal(k).sqrt() for k in range(order + 1)]
        t = Decimal(float(x))
        for _ in range(3):
            prev, cur = Decimal(0), Decimal(1)
            for k in range(order):
                prev, cur = cur, (t * cur - roots[k] * prev) / roots[k + 1]
            if t != 0:  # the middle node of an odd rule is exactly 0
                t -= cur / (roots[order] * prev)
        return float(t), float(1 / (order * prev * prev))


# Orders where scipy's rule misses the bounds of test_rule_matches_oracles
# by its own error, as _decimal_polish shows: its Golub-Welsch weights (up to
# order 150) and its asymptotic nodes near 0 and weights (from order 151)
# drift as the order grows.  At order 150 its worst weight is 1.8e-12 off,
# this rule's 6.5e-15; at order 20000 its nodes are 9.4e-12 and its weights
# 6.7e-12 off.  There the bounds are scipy's own error.
SCIPY_OWN_ERROR = {150: (2e-13, 3e-12), MAX_QUAD_ORDER: (2e-11, 2e-11)}
ORACLE_ORDERS = [*range(1, 13), 30, 64, 100, 150, 151, 200, 300, 500, 1000, MAX_QUAD_ORDER]


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_rule_matches_oracles(order):
    from scipy.special import roots_hermitenorm

    rule = build_quadrature(order)
    nodes, weights = roots_hermitenorm(order)
    weights = weights / math.sqrt(2.0 * math.pi)
    # the rule leaves out the nodes whose weights underflow, symmetrically
    cut = (order - len(rule.nodes)) // 2
    assert np.all(np.delete(weights, np.s_[cut : order - cut]) < np.finfo(float).tiny)
    nodes, weights = nodes[cut : order - cut], weights[cut : order - cut]
    node_err = np.abs(rule.nodes - nodes) / np.where(nodes == 0.0, 1.0, np.abs(nodes))
    kept = weights >= 1e-200
    weight_err = np.abs(rule.weights - weights)[kept] / weights[kept]
    node_tol, weight_tol = SCIPY_OWN_ERROR.get(order, (2e-13, 1e-12))
    assert node_err.max() <= node_tol
    assert weight_err.max() <= weight_tol
    # the worst disagreements, the smallest and the largest node, to the same
    # bounds against the decimal oracle
    for i in {int(np.argmax(node_err)), int(np.flatnonzero(kept)[np.argmax(weight_err)]),
              len(nodes) // 2, len(nodes) - 1}:
        x, w = _decimal_polish(order, rule.nodes[i])
        assert rule.nodes[i] == pytest.approx(x, rel=2e-13, abs=1e-300)
        assert rule.weights[i] == pytest.approx(w, rel=1e-12)
    table = np.array([hermite_eval(d, rule.nodes) for d in range(min(order - 1, 60) + 1)])
    gram = (table * rule.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(len(table)))) <= 1e-14
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


def test_rule_weights_finite_and_positive_up_to_the_cap():
    # every order through 600, past where nodes start to be left out (370),
    # then about 5% apart up to the cap
    orders = list(range(1, 601))
    while orders[-1] < MAX_QUAD_ORDER:
        orders.append(min(MAX_QUAD_ORDER, int(orders[-1] * 1.05)))
    for order in orders:
        rule = build_quadrature(order)
        assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
        assert np.all(rule.weights >= np.finfo(float).tiny)
        assert (len(rule.nodes) < order) == (order >= 370)


def test_quadrature_and_projection_caps():
    with pytest.raises(SizeCapError, match="cap"):
        build_quadrature(MAX_QUAD_ORDER + 1)
    with pytest.raises(SizeCapError, match="cap"):
        project_kernel(lambda x: x, degree=MAX_DEGREE + 1)
    # at the degree cap a Hermite sum still reads its own coefficient
    exp = project_kernel(hermite_sum_kernel([0.0] * (MAX_DEGREE - 1) + [1.0]), degree=MAX_DEGREE)
    assert exp.coefficients[MAX_DEGREE - 1] == 1.0
    assert exp.residual == 0.0


def test_orthonormality_matrix():
    rule = build_quadrature(200)
    table = np.array([hermite_eval(d, rule.nodes) for d in range(31)])
    gram = (table * rule.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(31))) < 1e-10


def test_project_linear_kernel():
    exp = project_kernel(hermite_sum_kernel([1.0]), degree=5)
    assert (exp.a, exp.nu, exp.residual) == (1.0, 1.0, 0.0)
    assert list(exp.coefficients) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_project_cubic_kernel():
    # x^3 = 3*h_1 + sqrt(6)*h_3 since x^3 - 3x = sqrt(6) h_3
    exp = project_kernel(parse_kernel("odd_poly(0,1)"), degree=5)
    assert exp.coefficients[0] == 3.0
    assert exp.coefficients[2] == pytest.approx(math.sqrt(6), rel=1e-15)
    assert exp.nu == pytest.approx(15.0, rel=1e-15)
    assert exp.coefficients[1] == exp.coefficients[3] == exp.coefficients[4] == 0.0


def test_project_h2_plus_h3():
    exp = project_kernel(hermite_sum_kernel([0.0, 1.0, 1.0]), degree=8)
    assert (exp.a, exp.a2, exp.nu) == (0.0, 1.0, 2.0)


def test_project_odd_kernel_has_no_even_coefficients():
    exp = project_kernel(KernelSpec(evaluator=ThresholdFunction(1.5)), degree=20)
    assert not np.any(exp.coefficients[1::2])


def test_kernel_moments_examples():
    assert kernel_moments(hermite_sum_kernel([1.0])) == (1.0, 1.0)
    # orthonormality: h_3 has a = <x, h_3> = 0 and nu = 1
    assert kernel_moments(hermite_sum_kernel([0.0, 0.0, 1.0])) == (0.0, 1.0)


def test_threshold_moments_match_monte_carlo():
    # oracle: 1e7-sample Monte Carlo of E[xi k(xi)] and E[k(xi)^2]
    a, nu = kernel_moments(KernelSpec(evaluator=ThresholdFunction(2.0)))
    assert 0.0 < a < 1.0
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(10**7)
    kv = ThresholdFunction(2.0)(xi)
    a_mc = float(np.mean(xi * kv))
    nu_mc = float(np.mean(kv * kv))
    se_a = float(np.std(xi * kv) / math.sqrt(len(xi)))
    se_nu = float(np.std(kv * kv) / math.sqrt(len(xi)))
    assert abs(a - a_mc) < 4 * se_a
    assert abs(nu - nu_mc) < 4 * se_nu


def test_parseval_residual_for_smooth_threshold():
    exp = project_kernel(KernelSpec(evaluator=ThresholdFunction(2.0)), degree=30)
    a, nu = kernel_moments(KernelSpec(evaluator=ThresholdFunction(2.0)))
    # degree-30 truncation captures nu to 1e-4, and nu is E[k^2] at any degree
    assert abs(nu - float(np.dot(exp.coefficients, exp.coefficients))) < 1e-4
    assert exp.residual < 1e-4
    assert exp.nu == pytest.approx(nu, rel=1e-14, abs=0)


def test_projection_requires_an_expansion():
    # no quadrature stands in for a kernel that carries no expansion
    for kernel in (lambda x: x, np.tanh, KernelSpec(evaluator=np.tanh)):
        with pytest.raises(ConfigError, match="expansion"):
            project_kernel(kernel, degree=30)
        with pytest.raises(ConfigError, match="expansion"):
            kernel_moments(kernel)


def test_scalar_only_evaluator_is_rejected_on_matrices():
    # math.tanh takes one float: a vector or a matrix would be one Python
    # call per entry
    spec = KernelSpec(evaluator=math.tanh)
    for shape in ((13,), (3, 3)):
        with pytest.raises(ConfigError, match="vectorize"):
            spec(np.zeros(shape))
    X = sample_data(DataMatrixConfig(n=20, p=10, seed=3))
    with pytest.raises(ConfigError, match="vectorize"):
        build_kernel_matrix(X, spec)


_entries = st.floats(-20.0, 20.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=1, max_size=30),
    x=st.one_of(
        _entries,
        hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, max_side=7), elements=_entries),
    ),
)
def test_expansion_sweep_matches_per_degree_sum(coeffs, x):
    # reference: one hermite_eval per nonzero degree, summed in increasing d;
    # a sum past HORNER_MAX_DEGREE is evaluated by that sweep alone
    expected = np.zeros_like(np.asarray(x, dtype=float))
    for d, c in enumerate(coeffs, start=1):
        if c != 0.0:
            expected += c * hermite_eval(d, x)
    k = KernelExpansion(coefficients=coeffs)
    assert np.array_equal(k._swept(np.asarray(x, dtype=float)), expected)
    got = k(x)
    if len(np.trim_zeros(coeffs, "b")) > HORNER_MAX_DEGREE:
        assert np.array_equal(got, expected)
    if np.ndim(x) == 0:
        assert type(got) is float


def _exact_monomial_sum(mono, x):
    """sum_j m_j x^j and sum_j |m_j| |x|^j, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        terms = [mpmath.mpf(m) * mpmath.mpf(x) ** j for j, m in enumerate(mono)]
        return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def _away_from_underflow(lo, hi):
    """Floats in [lo, hi] that are 0 or at least 2^-30 in magnitude."""
    return st.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-30)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(
        _away_from_underflow(-10.0, 10.0), min_size=1, max_size=HORNER_MAX_DEGREE
    ).filter(any),
    x=hnp.arrays(float, st.integers(1, 16), elements=_away_from_underflow(-8.0, 8.0)),
)
def test_horner_is_within_its_a_priori_bound(coeffs, x):
    # Horner's rule on the cached monomial coefficients m_j of degree D errs
    # by at most gamma_{2D} sum_j |m_j| |x|^j, gamma_k = k u / (1 - k u),
    # where no product underflows
    k = KernelExpansion(coefficients=coeffs)
    mono = k._monomials
    assert mono is not None and len(mono) == len(np.trim_zeros(coeffs, "b")) + 1
    # the m_j are those of sum_d a_d He_d / sqrt(d!), He_d's integer
    # coefficients from He_{d+1} = x He_d - d He_{d-1}
    he = [[1], [0, 1]]
    while len(he) < len(mono):
        d = len(he) - 1
        he.append([0] + he[d])  # x He_d
        for j, c in enumerate(he[d - 1]):
            he[-1][j] -= d * c
    with mpmath.workdps(60):
        exact, scale = [mpmath.mpf(0)] * len(mono), [mpmath.mpf(0)] * len(mono)
        for d, a in enumerate(coeffs[: len(mono) - 1], start=1):
            weight = mpmath.mpf(a) / mpmath.sqrt(math.factorial(d))
            for j, c in enumerate(he[d]):
                exact[j] += weight * c
                scale[j] += abs(weight * c)
        for m, e, sc in zip(mono, exact, scale):
            assert abs(m - e) <= 1e-13 * sc
    got = k(x)
    u = 2.0**-53
    gamma = 2 * (len(mono) - 1) * u / (1 - 2 * (len(mono) - 1) * u)
    for xi, gi in zip(x.tolist(), got.tolist()):
        exact, scale = _exact_monomial_sum(mono, xi)
        assert abs(mpmath.mpf(gi) - exact) <= gamma * scale, (xi, gi)


def test_horner_falls_back_to_the_recurrence():
    x = np.linspace(-8.0, 8.0, 1601)
    # m_1 = 1e308 (1 + 3 / sqrt(6)) overflows, so there is no Horner path
    k = KernelExpansion(coefficients=[1e308, 0.0, -1e308])
    assert k._monomials is None
    with np.errstate(over="ignore", invalid="ignore"):
        got, swept = k(x), k._swept(x)
    assert np.array_equal(got, swept, equal_nan=True)
    assert np.count_nonzero(np.isfinite(got)) == 219
    # finite monomials, but Horner overflows on 56 points the sweep keeps
    coeffs = [5.263363882340643e298, -9.795448837990968e307, -9.301858827142853e303,
              8.940585132305832e304, 4.697646258579759e294]
    k = KernelExpansion(coefficients=coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        horner = np.polynomial.polynomial.polyval(x, k._monomials)
        got, swept = k(x), k._swept(x)
    assert k._monomials is not None
    assert np.count_nonzero(~np.isfinite(horner) & np.isfinite(got)) == 56
    assert np.array_equal(got, swept, equal_nan=True)


def test_max_degree_sum_evaluates_by_the_recurrence():
    coeffs = [1.0 / d for d in range(1, MAX_DEGREE + 1)]
    k = hermite_sum_kernel(coeffs)
    x = np.linspace(-8.0, 8.0, 801)
    got = k(x)
    assert k.evaluator._monomials is None
    assert np.isfinite(got).all()
    expected = np.zeros_like(x)
    for d, c in enumerate(coeffs, start=1):
        expected += c * hermite_eval(d, x)
    assert np.array_equal(got, expected)
