"""Hermite basis machinery: orthonormal polynomial evaluation, kernels
that carry their exact Hermite expansions, and a Gauss-Hermite rule
against the standard normal weight, which no command builds.

Conventions.  h_d denotes the orthonormal polynomials with respect to
<f, g> = E[f(xi) g(xi)], xi ~ N(0,1), so h_0 = 1, h_1 = x,
h_2 = (x^2 - 1)/sqrt(2), h_3 = (x^3 - 3x)/sqrt(6).  The monic
(probabilists') polynomial of degree d is sqrt(d!) h_d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError, SizeCapError

# Keeps a payload short, and sparse_pca's h_m(x) below 2e185 through
# m = 247 at x <= 55.6, the largest 1.2 tau with a normal nu
MAX_DEGREE = 250
# Hermite sums up to this degree, the kernel registry's cap, are evaluated
# by Horner's rule on their monomial coefficients.  Longer ones keep the
# recurrence: He_d's monomial coefficients pass 7e12 at d = 24 and 2e251
# at d = 250, so a monomial sum would cancel away its digits, or overflow.
HORNER_MAX_DEGREE = 12
# build_quadrature takes O(order^2) time: 0.72 s and 1.2 MB at this cap, 2 vCPUs
MAX_QUAD_ORDER = 20_000
NEWTON_TOL = math.sqrt(np.finfo(float).eps)
NEWTON_MAX_PASSES = 10
RESCALE_EVERY = 16  # steps between rescalings of the running He_{order-1}
# Zeros of the Airy function Ai, negated (to double precision)
_AIRY_ZEROS = np.array([
    2.338107410459767, 4.08794944413097, 5.520559828095551, 6.786708090071759,
    7.944133587120853, 9.02265085334098, 10.040174341558085, 11.008524303733262,
    11.936015563236262, 12.828776752865757,
])


def hermite_eval(d: int, x):
    """Evaluate h_d, the degree-d orthonormal Hermite polynomial, at x
    (scalar or array), by upward recurrence, which is numerically stable
    on the real line."""
    if d < 0:
        raise ConfigError(f"degree must be >= 0, got {d}")
    for out in _hermite_sweep(np.asarray(x, dtype=float), d):
        pass
    return out if out.ndim else float(out)


def _hermite_sweep(x: np.ndarray, max_degree: int, scratch=None):
    """Yield h_0(x), ..., h_max_degree(x) from one upward pass of
    h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1).  The pass reuses two
    buffers, so each yielded array is overwritten two degrees later.
    `scratch`, an array shaped like x, holds nothing between yields, so the
    caller may use it there too."""
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
        np.multiply(prev, math.sqrt(k), out=prev)
        np.subtract(scratch, prev, out=prev)
        prev /= math.sqrt(k + 1)
        prev, cur = cur, prev
        yield cur


@dataclass(frozen=True)
class GaussHermiteRule:
    """Quadrature nodes/weights normalized against the standard normal
    density: sum(weights) == 1 and sum(w * f(x)) ~ E[f(xi)].  From order
    370 on there are fewer nodes than `order` (see build_quadrature)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def check_projection_size(degree: int) -> None:
    """Reject a projection degree over its cap."""
    if degree > MAX_DEGREE:
        raise SizeCapError(f"projection degree {degree} exceeds cap {MAX_DEGREE}")


def _airy_zeros(k: np.ndarray) -> np.ndarray:
    """|a_k| for the k-th zero a_k of the Airy function Ai: tabulated
    through k = 10, past it the large-k expansion (error 1.5e-13 at k = 10)."""
    t = 3.0 * math.pi / 8.0 * (4.0 * k - 1.0)
    t2 = t**-2.0
    out = t ** (2 / 3) * (
        1 + t2 * (5 / 48 + t2 * (-5 / 36 + t2 * (77125 / 82944 - t2 * 108056875 / 6967296)))
    )
    small = k <= len(_AIRY_ZEROS)
    out[small] = np.take(_AIRY_ZEROS, k[small].astype(int) - 1)
    return out


def _initial_nodes(order: int) -> np.ndarray:
    """The order // 2 positive zeros of He_order, ascending, to an absolute
    error of 3e-3 at order 2, under 1e-4 from order 5 and under 3e-6 from
    order 100 (Townsend, Trogdon and Olver 2016, lemmas 3.1 and 3.2):
    Tricomi's expansion in the bulk, Gatteschi's Airy-zero expansion for
    the round(0.4 sqrt(order)) largest, where it is the more accurate."""
    m = order // 2
    nu = 2.0 * order + 1.0
    edge = min(m, max(1, round(0.4 * math.sqrt(order))))
    k = np.arange(1, m - edge + 1, dtype=float)
    c = (4 * m - 4 * k + 3) * math.pi / nu
    tau = np.full_like(c, 0.5 * math.pi)  # tau - sin(tau) = c by Newton
    for _ in range(6):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sig = np.cos(0.5 * tau) ** 2
    bulk = nu * sig - (5.0 / (4.0 * (1.0 - sig) ** 2) - 1.0 / (1.0 - sig) - 0.25) / (3.0 * nu)
    a = -_airy_zeros(np.arange(edge, 0, -1, dtype=float))
    tail = (
        nu
        + 2 ** (2 / 3) * a * nu ** (1 / 3)
        + 0.2 * 2 ** (4 / 3) * a**2 * nu ** (-1 / 3)
        + (9 / 140 - 12 / 175 * a**3) / nu
        + (16 / 1575 * a + 92 / 7875 * a**4) * 2 ** (2 / 3) * nu ** (-5 / 3)
        - (15152 / 3031875 * a**5 + 1088 / 121275 * a**2) * 2 ** (1 / 3) * nu ** (-7 / 3)
    )
    # both expansions give the squared zeros of H_order; He's are sqrt(2) times H's
    return np.sqrt(2.0 * np.concatenate([bulk, tail]))


def _hermite_ratios(x: np.ndarray, order: int):
    """He_order(x) / He_{order-1}(x), He_{order-1}(x) / He_{order-2}(x), and
    He_{order-1}(x) as a mantissa in [0.5, 1) and a power of two, for
    order >= 2.  Runs the ratio form of He_{k+1} = x He_k - k He_{k-1}: two
    ufunc calls a step for the ratio, one for the running product, which
    is brought back to [0.5, 1) every RESCALE_EVERY steps so that it
    cannot overflow."""
    ratio = x.copy()  # He_1 / He_0
    mantissa = x.copy()  # He_1
    exponent = np.zeros(x.shape, dtype=np.int64)
    scratch = np.empty_like(x)
    for k in range(1, order - 1):
        np.divide(k, ratio, out=scratch)
        np.subtract(x, scratch, out=ratio)  # He_{k+1} / He_k
        mantissa *= ratio
        if k % RESCALE_EVERY == 0:
            mantissa, step = np.frexp(mantissa)
            exponent += step
    mantissa, step = np.frexp(mantissa)
    return x - (order - 1) / ratio, ratio, mantissa, exponent + step


def _positive_half(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The positive nodes of the order-point rule, ascending, and their
    weights before normalisation (a common factor is left out).

    Newton's method on He_order from _initial_nodes, all nodes at once.
    At a zero, He'' = x He', so a step of dx leaves an error of about
    x dx^2 / 2: once every |dx| <= sqrt(eps) that is below half an ulp of
    x, and the loop stops.  The weights are the Christoffel numbers
    1 / (order h_{order-1}(x)^2); the last pass evaluated He_{order-1} one
    step behind the nodes, so it is moved along to first order by
    He'_{order-1} = (order - 1) He_{order-2}."""
    x = _initial_nodes(order)
    with np.errstate(divide="ignore"):  # an exact zero of some He_k gives a ratio of inf
        for _ in range(NEWTON_MAX_PASSES):
            ratio, prev, mantissa, exponent = _hermite_ratios(x, order)
            dx = ratio / order  # He / He' = He_order / (order He_{order-1})
            x = x - dx
            if np.max(np.abs(dx)) <= NEWTON_TOL:
                break
        else:
            raise QuadratureError(f"Newton iteration for the order-{order} nodes did not converge")
    mantissa *= 1.0 - dx * (order - 1) / prev
    return x, np.ldexp(1.0 / (mantissa * mantissa), 2 * (exponent.min() - exponent))


def build_quadrature(order: int) -> GaussHermiteRule:
    """Gauss-Hermite rule for the N(0,1) weight, exact for polynomials of
    degree <= 2*order - 1.  Self-checks the low even moments and fails
    loudly rather than returning a degraded rule.

    Built in numpy without LAPACK (see _positive_half): the positive half
    of the rule is computed and mirrored, so the rule is exactly
    symmetric, and for odd order the middle weight is the exact
    4^m / (order C(2m, m)), m = order // 2.  Nodes whose weight is below the
    smallest normal double are left out: from order 370 on the rule has
    fewer than `order` nodes, and the mass they carry is below 1e-300."""
    if order < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {order}")
    if order > MAX_QUAD_ORDER:
        raise SizeCapError(f"quadrature order {order} exceeds cap {MAX_QUAD_ORDER}")
    order = int(order)
    half = order // 2
    middle = 4**half / (order * math.comb(2 * half, half)) if order % 2 else 0.0
    x = w = np.empty(0)
    if half:
        x, w = _positive_half(order)
        w *= (1.0 - middle) / (2.0 * w.sum())
        keep = w >= np.finfo(float).tiny
        x, w = x[keep], w[keep]
    nodes = np.concatenate([-x[::-1], [0.0] if order % 2 else [], x])
    weights = np.concatenate([w[::-1], [middle] if order % 2 else [], w])

    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights)) and np.all(weights > 0)):
        raise QuadratureError(f"non-finite or non-positive weights at order {order}")
    if not np.all(np.diff(nodes) > 0):  # two starts that converged to one zero
        raise QuadratureError(f"repeated or unordered nodes at order {order}")
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
    """Evaluate a kernel on an array; a callable that only takes scalars is
    rejected, where a loop would be one Python call per entry."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    raise ConfigError("kernel evaluator must vectorize over arrays")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function; parse_kernel builds one for each registry family.
    The evaluator must be a pure, array-vectorized function R -> R, and
    carry its exact Hermite expansion for project_kernel."""

    evaluator: Callable

    def __call__(self, x):
        return _eval_on(self.evaluator, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class KernelExpansion:
    """Hermite coefficients a_1..a_D of a mean-zero kernel, and nu = E[k^2].
    Without a nu it is the finite sum sum_d a_d h_d, whose nu is sum(a_d^2);
    `residual`, nu - sum(a_d^2), is the mass a truncation leaves out."""

    coefficients: np.ndarray  # index d-1 holds a_d
    nu: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if not np.isfinite(coeffs).all():
            raise ConfigError("kernel: a Hermite coefficient is not finite")
        object.__setattr__(self, "coefficients", coeffs)
        if self.nu is None:
            object.__setattr__(self, "nu", self._squares())

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def a(self) -> float:
        return float(self.coefficients[0]) if self.degree >= 1 else 0.0

    @property
    def a2(self) -> float:
        return float(self.coefficients[1]) if self.degree >= 2 else 0.0

    def _squares(self) -> float:  # in increasing d, so trailing zeros keep its bits
        return sum((c * c for c in self.coefficients.tolist()), 0.0)

    @property
    def residual(self) -> float:
        return max(0.0, self.nu - self._squares())

    def expansion(self, degree: int) -> KernelExpansion:
        """a_1..a_degree, its own bits padded with zeros, and its nu."""
        coeffs = np.pad(self.coefficients[:degree], (0, max(0, degree - self.degree)))
        return KernelExpansion(coefficients=coeffs, nu=self.nu)

    @functools.cached_property
    def _monomials(self) -> list[float] | None:
        """m_0..m_D with sum_d a_d h_d(x) = sum_j m_j x^j, from herme2poly of
        a_d / sqrt(d!), or None for the zero sum, past HORNER_MAX_DEGREE or
        where an m_j is not finite."""
        coeffs = np.trim_zeros(self.coefficients, "b")
        if not 0 < len(coeffs) <= HORNER_MAX_DEGREE:
            return None
        scale = [math.sqrt(math.factorial(d)) for d in range(1, len(coeffs) + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            mono = np.polynomial.hermite_e.herme2poly(np.concatenate([[0.0], coeffs / scale]))
        return mono.tolist() if np.isfinite(mono).all() else None

    def __call__(self, x):
        """sum_d a_d h_d(x): _horner's value up to HORNER_MAX_DEGREE where it
        is finite, else _swept's, which stays finite where the monomials
        overflow."""
        x = np.asarray(x, dtype=float)
        out = self._horner(x)
        if out is None or not np.isfinite(out).all():
            out = self._swept(x)
        return out if out.ndim else float(out)

    def _horner(self, x: np.ndarray) -> np.ndarray | None:
        """Horner's rule on the monomial coefficients (_monomials), two array
        passes a degree, or None without them.  Within gamma_{2D} sum_j |m_j|
        |x|^j of the exact monomial sum of degree D, gamma_k = k u / (1 - k
        u), u = 2^-53; overflow gives inf or NaN, not a warning."""
        mono = self._monomials
        if mono is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.multiply(x, mono[-1])
            out += mono[-2]
            for m in reversed(mono[:-2]):
                out *= x
                out += m
        return out

    def _swept(self, x: np.ndarray) -> np.ndarray:
        """sum_d a_d h_d(x), accumulated in increasing d during one sweep of
        the recurrence up to the last nonzero coefficient."""
        out = np.zeros_like(x)
        term = np.empty_like(x)
        coeffs = np.trim_zeros(self.coefficients, "b")
        for c, h in zip(coeffs, islice(_hermite_sweep(x, len(coeffs), scratch=term), 1, None)):
            if c != 0.0:
                out += np.multiply(c, h, out=term)
        return out


@dataclass(frozen=True)
class OddPolynomial:
    """c_1 x + c_3 x^3 + ..., evaluated by Horner in x^2.  `expansion` reads
    its Hermite sum, from x^k = sum_j k!/(j!(k-2j)!2^j) He_{k-2j} and He_m =
    sqrt(m!) h_m: exact, but it cancels in value where the monomials do not."""

    odd: tuple[float, ...]  # c_1, c_3, ...

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x * np.polynomial.polynomial.polyval(x * x, self.odd)

    def expansion(self, degree: int) -> KernelExpansion:
        power = np.column_stack([np.zeros(len(self.odd)), self.odd]).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            he = np.polynomial.hermite_e.poly2herme(power)
            he = he[1:] * np.cumprod(np.sqrt(np.arange(1.0, len(he))))
        return KernelExpansion(coefficients=he).expansion(degree)


def project_kernel(kernel, degree: int) -> KernelExpansion:
    """a_1..a_degree and nu = E[k(xi)^2] of a mean-zero kernel (a KernelSpec's
    evaluator), read off its exact `expansion(degree)`.  A kernel without one
    raises ConfigError, one whose E[k^2] overflows DomainError."""
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    check_projection_size(degree)
    kernel = getattr(kernel, "evaluator", kernel)  # a KernelSpec's own
    expand = getattr(kernel, "expansion", None)
    if expand is None:
        raise ConfigError(f"kernel {kernel!r} carries no exact Hermite expansion")
    exp = expand(degree)
    if not math.isfinite(exp.nu):
        raise DomainError(f"E[k(xi)^2] or a Hermite coefficient overflows (E[k^2] = {exp.nu})")
    return exp


def kernel_moments(kernel) -> tuple[float, float]:
    """(a, nu) = (E[xi k(xi)], E[k(xi)^2]) from the kernel's exact expansion."""
    e = project_kernel(kernel, 1)
    return e.a, e.nu


def hermite_sum_kernel(coeffs: Sequence[float]) -> KernelSpec:
    """KernelSpec for sum_d coeffs[d-1] * h_d."""
    return KernelSpec(evaluator=KernelExpansion(coefficients=coeffs))
