"""Hermite basis machinery: orthonormal/monic polynomial evaluation,
Gauss-Hermite quadrature against the standard normal weight, and
projection of kernel functions onto the basis.

Conventions.  h_d denotes the orthonormal polynomials with respect to
<f, g> = E[f(xi) g(xi)], xi ~ N(0,1); the monic variants are
ht_d = sqrt(d!) h_d and satisfy ht_{d+1}(x) = x ht_d(x) - d ht_{d-1}(x).
So h_0 = 1, h_1 = x, h_2 = (x^2 - 1)/sqrt(2), h_3 = (x^3 - 3x)/sqrt(6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, MeanNotZeroError, QuadratureError

DEFAULT_QUAD_ORDER = 200
DEFAULT_DEGREE = 30
MEAN_ZERO_TOL = 1e-8


def hermite_eval(d: int, x, variant: str = "orthonormal"):
    """Evaluate the degree-d Hermite polynomial at x (scalar or array).

    variant "orthonormal" gives h_d (unit norm under the standard normal);
    "monic" gives ht_d = sqrt(d!) h_d with leading coefficient 1.  Computed
    by upward recurrence, which is numerically stable on the real line.
    """
    if d < 0:
        raise ConfigError(f"degree must be >= 0, got {d}")
    if variant not in ("orthonormal", "monic"):
        raise ConfigError(f"unknown variant {variant!r}")
    for out in _hermite_sweep(np.asarray(x, dtype=float), d, monic=variant == "monic"):
        pass
    return out if out.ndim else float(out)


def _hermite_sweep(x: np.ndarray, max_degree: int, monic: bool = False, scratch=None):
    """Yield h_0(x), ..., h_max_degree(x) from one upward pass of
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1), or of the monic
    ht_{k+1} = x ht_k - k ht_{k-1}.  The pass reuses two buffers, so each
    yielded array is overwritten two degrees later.  `scratch`, an array
    shaped like x, holds nothing between yields, so the caller may use it
    there too."""
    prev = np.ones_like(x)
    yield prev
    if max_degree < 1:
        return
    cur = x.copy()
    yield cur
    if scratch is None:
        scratch = np.empty_like(x)
    for k in range(1, max_degree):
        np.multiply(x, cur, out=scratch)
        np.multiply(prev, k if monic else math.sqrt(k), out=prev)
        np.subtract(scratch, prev, out=prev)
        if not monic:
            prev /= math.sqrt(k + 1)
        prev, cur = cur, prev
        yield cur


@dataclass(frozen=True)
class GaussHermiteRule:
    """Quadrature nodes/weights normalized against the standard normal
    density: sum(weights) == 1 and sum(w * f(x)) ~ E[f(xi)]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = _eval_on(f, self.nodes)
        return float(np.dot(self.weights, vals))


def build_quadrature(order: int) -> GaussHermiteRule:
    """Gauss-Hermite rule for the N(0,1) weight, exact for polynomials of
    degree <= 2*order - 1.  Self-checks the low even moments and fails
    loudly rather than returning a degraded rule."""
    if order < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {order}")
    # Imported on first use: scipy.special imports numpy.f2py, which parses
    # SOURCE_DATE_EPOCH at import and raises ValueError on a non-integer
    # value before the CLI can report it as a config error.
    from scipy.special import roots_hermitenorm

    try:
        nodes, weights = roots_hermitenorm(int(order))
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise QuadratureError(f"rule construction failed at order {order}: {exc}") from exc
    weights = weights / np.sqrt(2.0 * np.pi)

    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights)) and np.all(weights > 0)):
        raise QuadratureError(f"non-finite or non-positive weights at order {order}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise QuadratureError(f"weights sum to {weights.sum()!r} at order {order}")
    # double factorial moments E[x^{2m}] = (2m-1)!!
    for m, exact in ((1, 1.0), (2, 3.0), (3, 15.0)):
        if 2 * m <= 2 * order - 1:
            got = float(np.dot(weights, nodes ** (2 * m)))
            if abs(got - exact) > 1e-9 * exact:
                raise QuadratureError(
                    f"order-{order} rule failed moment check E[x^{2 * m}]: {got} vs {exact}"
                )
    return GaussHermiteRule(order=int(order), nodes=nodes, weights=weights)


def _eval_on(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a kernel on an array.  Callables that only take scalars are
    looped over 1-D inputs (quadrature nodes, parity grids) but rejected on
    matrices, where the loop would be one Python call per entry."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    if x.ndim > 1:
        raise ConfigError("kernel evaluator must vectorize over arrays")
    return np.asarray([float(f(float(t))) for t in np.ravel(x)]).reshape(x.shape)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function together with its declared parity.

    The evaluator must be a pure function R -> R; array-vectorized
    evaluators are used as-is, scalar ones are wrapped for 1-D inputs only.
    """

    evaluator: Callable
    declared_parity: str = "general"  # "odd" or "general"
    growth_note: str = ""

    def __post_init__(self):
        if self.declared_parity not in ("odd", "general"):
            raise ConfigError(f"declared_parity must be 'odd' or 'general', got {self.declared_parity!r}")

    def __call__(self, x):
        return _eval_on(self.evaluator, np.asarray(x, dtype=float))

    def check_parity(self, grid: np.ndarray | None = None, tol: float = 1e-12) -> None:
        """For kernels declared odd, verify k(-x) = -k(x) on a sample grid."""
        if self.declared_parity != "odd":
            return
        if grid is None:
            grid = np.linspace(0.0, 6.0, 241)
        left = self(-grid)
        right = -self(grid)
        scale = max(1.0, float(np.max(np.abs(right))))
        err = float(np.max(np.abs(left - right)))
        if err > tol * scale:
            raise ConfigError(f"kernel declared odd but k(-x)+k(x) deviates by {err:.3e}")

    def is_odd(self, tol: float = 1e-10) -> bool:
        if self.declared_parity == "odd":
            return True
        grid = np.linspace(0.0, 6.0, 241)
        err = float(np.max(np.abs(self(-grid) + self(grid))))
        return err <= tol * max(1.0, float(np.max(np.abs(self(grid)))))


@dataclass(frozen=True)
class KernelExpansion:
    """Hermite coefficients a_1..a_D of a mean-zero kernel.

    `residual` is the L2 mass left out by the degree-D truncation,
    E[k^2] - sum(a_d^2), as measured by the projection quadrature.
    """

    coefficients: np.ndarray  # index d-1 holds a_d
    residual: float = 0.0
    centered_by: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def a(self) -> float:
        return float(self.coefficients[0]) if self.degree >= 1 else 0.0

    @property
    def a2(self) -> float:
        return float(self.coefficients[1]) if self.degree >= 2 else 0.0

    @property
    def nu(self) -> float:
        return float(np.dot(self.coefficients, self.coefficients))

    def coefficient(self, d: int) -> float:
        if not 1 <= d <= self.degree:
            return 0.0
        return float(self.coefficients[d - 1])

    def __call__(self, x):
        """sum_d a_d h_d(x), accumulated in increasing d during one sweep of
        the recurrence up to the last nonzero coefficient."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        term = np.empty_like(x)
        coeffs = np.trim_zeros(self.coefficients, "b")
        for c, h in zip(coeffs, islice(_hermite_sweep(x, len(coeffs), scratch=term), 1, None)):
            if c != 0.0:
                out += np.multiply(c, h, out=term)
        return out if out.ndim else float(out)


def project_kernel(
    kernel,
    degree: int = DEFAULT_DEGREE,
    rule: GaussHermiteRule | None = None,
    center: bool = False,
) -> KernelExpansion:
    """Project a kernel onto h_1..h_D by quadrature.

    The constant coefficient a_0 = E[k(xi)] must vanish (the limit-law
    theory assumes a mean-zero kernel).  If |a_0| exceeds the tolerance the
    call fails unless `center=True`, in which case the kernel is replaced
    by k - a_0 and the shift is recorded on the result.
    """
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    if rule is None:
        rule = build_quadrature(max(DEFAULT_QUAD_ORDER, 2 * degree + 4))
    if rule.order < 2 * degree + 4:
        raise ConfigError(
            f"quadrature order {rule.order} too small for degree {degree} (need >= {2 * degree + 4})"
        )
    if isinstance(kernel, KernelSpec):
        kernel.check_parity()
    vals = _eval_on(kernel, rule.nodes)
    table = np.array([h.copy() for h in _hermite_sweep(rule.nodes, degree)])
    wvals = rule.weights * vals
    a0 = float(np.dot(rule.weights, vals))
    if abs(a0) > MEAN_ZERO_TOL:
        if not center:
            raise MeanNotZeroError(
                f"kernel has E[k(xi)] = {a0:.3e} (tolerance {MEAN_ZERO_TOL}); "
                "pass center=True to subtract it"
            )
        vals = vals - a0
        wvals = rule.weights * vals
    coeffs = table[1:] @ wvals
    nu_quad = float(np.dot(rule.weights, vals * vals))
    residual = max(0.0, nu_quad - float(np.dot(coeffs, coeffs)))
    return KernelExpansion(
        coefficients=coeffs,
        residual=residual,
        centered_by=a0 if (center and abs(a0) > MEAN_ZERO_TOL) else 0.0,
    )


def kernel_moments(kernel, rule: GaussHermiteRule | None = None) -> tuple[float, float]:
    """(a, nu) = (E[xi k(xi)], E[k(xi)^2]) by quadrature.

    Applies the same mean-zero gate as project_kernel: a nonzero constant
    component would silently shift the limit law.
    """
    if rule is None:
        rule = build_quadrature(DEFAULT_QUAD_ORDER)
    if isinstance(kernel, KernelSpec):
        kernel.check_parity()
    vals = _eval_on(kernel, rule.nodes)
    a0 = float(np.dot(rule.weights, vals))
    if abs(a0) > MEAN_ZERO_TOL:
        raise MeanNotZeroError(f"kernel has E[k(xi)] = {a0:.3e}; center it first")
    a = float(np.dot(rule.weights, rule.nodes * vals))
    nu = float(np.dot(rule.weights, vals * vals))
    return a, nu


def hermite_sum_kernel(coeffs: Sequence[float]) -> KernelSpec:
    """KernelSpec for sum_d coeffs[d-1] * h_d.  Parity is declared odd when
    all even-degree coefficients vanish."""
    coeffs = np.asarray(coeffs, dtype=float)
    odd = all(coeffs[d - 1] == 0.0 for d in range(2, len(coeffs) + 1, 2))
    expansion = KernelExpansion(coefficients=coeffs)
    return KernelSpec(
        evaluator=expansion,
        declared_parity="odd" if odd else "general",
        growth_note=f"polynomial of degree {len(coeffs)}",
    )
