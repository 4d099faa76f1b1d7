import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelspectra.errors import ConfigError, MeanNotZeroError, QuadratureError
from kernelspectra.hermite import (
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
    # odd monic polynomials vanish at 0
    for d in (1, 3, 5, 7):
        assert hermite_eval(d, 0.0, variant="monic") == 0.0
    # monic cubic at 2: x^3 - 3x = 8 - 6
    assert hermite_eval(3, 2.0, variant="monic") == pytest.approx(2.0, abs=1e-12)


def test_monic_orthonormal_scaling():
    xs = np.linspace(-3, 3, 13)
    for d in range(8):
        monic = hermite_eval(d, xs, variant="monic")
        ortho = hermite_eval(d, xs)
        assert np.allclose(monic, math.sqrt(math.factorial(d)) * ortho, atol=1e-10)


def test_eval_rejects_bad_args():
    with pytest.raises(ConfigError):
        hermite_eval(-1, 0.0)
    with pytest.raises(ConfigError):
        hermite_eval(2, 0.0, variant="weird")


def test_quadrature_normal_moments():
    rule = build_quadrature(10)
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    assert rule.integrate(lambda x: x**2) == pytest.approx(1.0, abs=1e-12)
    assert rule.integrate(lambda x: x**4) == pytest.approx(3.0, abs=1e-12)
    assert rule.integrate(lambda x: x) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_exact_through_degree_2n_minus_1():
    rule = build_quadrature(12)
    for k in range(0, 24):
        exact = 0.0 if k % 2 else float(double_factorial(k - 1))
        # cancellation scale: odd moments are sums of +-|x|^k pairs
        scale = rule.integrate(lambda x: np.abs(x) ** k)
        assert rule.integrate(lambda x: x**k) == pytest.approx(exact, abs=1e-13 * max(1.0, scale))


def test_quadrature_rejects_order_zero():
    with pytest.raises(ConfigError):
        build_quadrature(0)


def test_orthonormality_matrix():
    rule = build_quadrature(200)
    table = np.array([hermite_eval(d, rule.nodes) for d in range(31)])
    gram = (table * rule.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(31))) < 1e-10


def test_project_linear_kernel():
    exp = project_kernel(lambda x: x, degree=5)
    assert exp.a == pytest.approx(1.0, abs=1e-12)
    assert exp.nu == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(exp.coefficients[1:])) < 1e-12


def test_project_cubic_kernel():
    # x^3 = 3*h_1 + sqrt(6)*h_3 since x^3 - 3x = sqrt(6) h_3
    exp = project_kernel(lambda x: x**3, degree=5, rule=build_quadrature(40))
    assert exp.coefficient(1) == pytest.approx(3.0, abs=1e-10)
    assert exp.coefficient(3) == pytest.approx(math.sqrt(6), abs=1e-10)
    assert exp.nu == pytest.approx(15.0, abs=1e-9)
    assert abs(exp.coefficient(2)) < 1e-10 and abs(exp.coefficient(4)) < 1e-10


def test_project_h2_plus_h3():
    exp = project_kernel(hermite_sum_kernel([0.0, 1.0, 1.0]), degree=8)
    assert exp.a == pytest.approx(0.0, abs=1e-10)
    assert exp.a2 == pytest.approx(1.0, abs=1e-10)
    assert exp.nu == pytest.approx(2.0, abs=1e-10)


def test_project_odd_kernel_has_no_even_coefficients():
    exp = project_kernel(ThresholdFunction(1.5).as_kernel_spec(), degree=20)
    for d in range(2, 21, 2):
        assert abs(exp.coefficient(d)) < 1e-8


def test_mean_zero_gate_and_centering():
    with pytest.raises(MeanNotZeroError):
        project_kernel(lambda x: x + 0.5, degree=4)
    exp = project_kernel(lambda x: x + 0.5, degree=4, center=True)
    assert exp.centered_by == pytest.approx(0.5, abs=1e-12)
    assert exp.a == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(MeanNotZeroError):
        kernel_moments(lambda x: x + 0.5)


def test_declared_odd_parity_is_checked():
    with pytest.raises(ConfigError):
        project_kernel(KernelSpec(evaluator=lambda x: x**2 - 1, declared_parity="odd"), degree=4)


def test_kernel_moments_examples():
    assert kernel_moments(lambda x: x) == pytest.approx((1.0, 1.0), abs=1e-12)
    # orthonormality: h_3 has a = <x, h_3> = 0 and nu = 1
    a, nu = kernel_moments(hermite_sum_kernel([0.0, 0.0, 1.0]))
    assert a == pytest.approx(0.0, abs=1e-12)
    assert nu == pytest.approx(1.0, abs=1e-12)


def test_threshold_moments_match_monte_carlo():
    # oracle: 1e7-sample Monte Carlo of E[xi k(xi)] and E[k(xi)^2]
    a, nu = kernel_moments(ThresholdFunction(2.0).as_kernel_spec())
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
    exp = project_kernel(ThresholdFunction(2.0).as_kernel_spec(), degree=30)
    a, nu = kernel_moments(ThresholdFunction(2.0).as_kernel_spec())
    assert abs(nu - exp.nu) < 1e-4  # degree-30 truncation captures nu to 1e-4
    assert exp.residual < 1e-4


def test_projection_requires_adequate_rule():
    with pytest.raises(ConfigError):
        project_kernel(lambda x: x, degree=30, rule=build_quadrature(20))


def test_scalar_only_evaluator_is_looped_on_vectors():
    # math.tanh takes one float, so a node vector goes through the scalar loop
    spec = KernelSpec(evaluator=math.tanh, declared_parity="odd")
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(spec(xs), np.tanh(xs), atol=1e-15)
    a, nu = kernel_moments(spec)
    assert 0.0 < a < 1.0 and 0.0 < nu < 1.0


def test_scalar_only_evaluator_is_rejected_on_matrices():
    spec = KernelSpec(evaluator=math.tanh)
    with pytest.raises(ConfigError, match="vectorize"):
        spec(np.zeros((3, 3)))
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
    # reference: one hermite_eval per nonzero degree, summed in increasing d
    expected = np.zeros_like(np.asarray(x, dtype=float))
    for d, c in enumerate(coeffs, start=1):
        if c != 0.0:
            expected += c * hermite_eval(d, x)
    got = KernelExpansion(coefficients=coeffs)(x)
    assert np.array_equal(got, expected)
    if np.ndim(x) == 0:
        assert type(got) is float
