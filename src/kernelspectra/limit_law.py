"""The limiting spectral law of inner-product kernel random matrices.

The measure is parameterized by (a, nu, gamma) and characterized by its
Stieltjes transform m(z), the unique solution in the upper half-plane of

    -1/m = z + a*(1 - 1/(1 + a*gamma*m)) + gamma*(nu - a^2)*m.

Clearing denominators turns this into a cubic in m,

    (a*g^2*(nu-a^2)) m^3 + ((z+a)*a*g + g*(nu-a^2)) m^2 + (z + a*g) m + 1 = 0

with g = gamma, whose upper-half-plane root is m(z).  The law is the
free additive convolution of a centered, a-scaled Marcenko-Pastur law and
a semicircle law of variance gamma*(nu - a^2); that identity fixes the
free cumulants, and through the moment-cumulant relation every moment.
The support edges are the real roots of the cubic's discriminant, a
quartic in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, DomainError, SizeCapError

MAX_MOMENT_ORDER = 100
# Points of `density` and `cdf`.  Their cubics are solved in blocks of
# _GRID_BLOCK points, so what grows with the points is the line, m and the
# results: ru_maxrss rose by 56 B a point for `density`, 88 B for `cdf`
# and 96 B for the limit-law command with its CSV (fresh processes, 2e5 to
# 2e6 points; 500 B for all three before the blocks).  So 5.9 GB at this
# cap, about 1 GB short of a 7 GB host.
MAX_DENSITY_POINTS = 5_900_000_000 // 96
_GRID_BLOCK = 4096  # points per batched cubic solve in stieltjes_grid
_MP_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class LimitLawParams:
    """The triple (a, nu, gamma) of a limit law.

    For laws derived from a kernel, a = E[xi k(xi)] and nu = E[k(xi)^2],
    so nu >= a^2 by Cauchy-Schwarz; gamma is the row/column aspect limit.
    All three are stored as Python floats, which overflow with no warning.
    """

    a: float
    nu: float
    gamma: float

    def __post_init__(self):
        for name in ("a", "nu", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(v) for v in (self.a, self.nu, self.gamma)):
            raise ConfigError(f"a, nu and gamma must be finite, got {self}")
        if not (self.gamma > 0):
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not (self.nu > 0):
            raise ConfigError(f"nu must be > 0, got {self.nu}")
        if self.nu < self.a * self.a * (1.0 - 1e-12) - 1e-300:
            raise ConfigError(
                f"nu = {self.nu} < a^2 = {self.a * self.a}; no kernel realizes these parameters"
            )

    @property
    def semicircle_variance(self) -> float:
        return self.gamma * max(self.nu - self.a * self.a, 0.0)

    @property
    def is_marcenko_pastur(self) -> bool:
        """True when nu == a^2, i.e. the semicircle component vanishes."""
        return abs(self.nu - self.a * self.a) <= _MP_DEGENERACY_RTOL * self.nu


@dataclass(frozen=True)
class SupportIntervals:
    """Support of the law: one or two closed intervals, plus (only in the
    degenerate Marcenko-Pastur case with gamma > 1) a point mass recorded
    both as a zero-width interval and in the atom fields."""

    intervals: tuple[tuple[float, float], ...]
    atom_location: float | None = None
    atom_mass: float | None = None

    @property
    def min_edge(self) -> float:
        return self.intervals[0][0]

    @property
    def max_edge(self) -> float:
        return self.intervals[-1][1]

    @property
    def norm(self) -> float:
        return max(abs(self.min_edge), abs(self.max_edge))


def _cubic_coefficients(z, p: LimitLawParams):
    """Coefficients (c3, c2, c1) of the cubic in m, whose constant term is
    1; c3 is a float, and c2, c1 follow the shape of z."""
    b = p.a * p.gamma
    c = p.semicircle_variance
    return b * c, (z + p.a) * b + c, z + b


def _solve_cubic(c3, c2, c1) -> np.ndarray:
    """All three roots of c3*m^3 + c2*m^2 + c1*m + 1 = 0, c2 and c1 of one
    shape and c3 a number, as an array of shape (3,) + that shape: the
    reciprocals of the (backward stable) companion eigenvalues of the
    reversed cubic w^3 + c1*w^2 + c2*w + c3, so nothing is divided by a
    small c3, and c3 = 0 gives w = 0, a root at inf (as does a root too
    large for the polish to evaluate).  Three Newton steps on the cubic
    then take each finite root to a residual at machine-precision level."""
    c2, c1 = np.asarray(c2, dtype=complex), np.asarray(c1, dtype=complex)
    companion = np.zeros(c1.shape + (3, 3), dtype=complex)
    companion[..., 0, 0], companion[..., 0, 1], companion[..., 0, 2] = -c1, -c2, -c3
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    w = np.moveaxis(np.linalg.eigvals(companion), -1, 0)
    finite = w != 0
    roots = 1.0 / np.where(finite, w, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # huge roots overflow f and df
        for _ in range(3):  # Newton polish on the cubic itself
            f = ((c3 * roots + c2) * roots + c1) * roots + 1.0
            df = (3.0 * c3 * roots + 2.0 * c2) * roots + c1
            roots = roots - np.where(df != 0, f / np.where(df == 0, 1.0, df), 0.0)
    return np.where(finite & np.isfinite(roots), roots, np.inf)


def stieltjes_grid(zs: np.ndarray, p: LimitLawParams) -> np.ndarray:
    """Vectorized m(z) over an array of upper-half-plane points.

    Selects, per point, the root with the largest imaginary part; the two
    spurious branches of the cubic lie in the closed lower half-plane up
    to roundoff.  The cubics are solved in blocks of _GRID_BLOCK points,
    each point on its own, so the solver's temporaries stay the size of a
    block and every point gets the bits of an unblocked solve.
    """
    zs = np.asarray(zs, dtype=complex)
    if not np.all(zs.imag > 0):
        raise DomainError("stieltjes_grid requires Im z > 0 everywhere")
    m = np.empty(zs.shape, dtype=complex)
    flat_z, flat_m = zs.reshape(-1), m.reshape(-1)
    for i0 in range(0, flat_z.size, _GRID_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _cubic_coefficients(flat_z[i0:i0 + _GRID_BLOCK], p)
        if not all(np.isfinite(c).all() for c in coeffs):
            raise DomainError(f"the cubic in m(z) of {p} overflows double precision on this grid")
        roots = _solve_cubic(*coeffs)
        pick = np.argmax(roots.imag, axis=0)
        flat_m[i0:i0 + _GRID_BLOCK] = np.take_along_axis(roots, pick[None, :], axis=0)[0]
    if not np.all(m.imag > 0):
        bad = zs[m.imag <= 0]
        raise ConsistencyError(f"no upper-half-plane root at {bad[:3]} ...")
    return m


def _stieltjes_line(p: LimitLawParams, xs: np.ndarray, epsilon: float):
    """z = x + i*eps and m(z) over the points xs."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")
    xs = np.asarray(xs, dtype=float)
    if xs.size > MAX_DENSITY_POINTS:
        raise SizeCapError(f"{xs.size} density points exceed cap {MAX_DENSITY_POINTS}")
    zs = xs + 1j * epsilon
    return zs, stieltjes_grid(zs, p)


def density(p: LimitLawParams, xs: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Density by Stieltjes inversion: Im m(x + i*eps) / pi at the points xs."""
    _, m = _stieltjes_line(p, xs, epsilon)
    return np.maximum(m.imag / np.pi, 0.0)


def cdf(p: LimitLawParams, xs: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """CDF of the law that `density` samples (the law convolved with a
    Cauchy law of scale eps) at the points xs, in closed form.

    The inverse of m(z) is z(m) = -1/m - a + a/(1 + a*g*m) - c*m with
    c = gamma*(nu - a^2), so H(z) = z*m - integral of z(m) dm,

        H = z*m + log m + a*m - log(1 + a*g*m)/g + (c/2)*m^2,

    has H' = m(z) = integral of dmu(t)/(t - z), and Im H(x + i*eps)/pi is
    the smoothed mass below x.  m stays in the upper half-plane and
    1 + a*g*m off the negative axis, so the principal logs are continuous
    along the line, and Im H -> 0 as x -> -inf; a non-finite Im H raises.
    """
    zs, m = _stieltjes_line(p, xs, epsilon)
    g, c = p.gamma, p.semicircle_variance
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = zs * m + np.log(m) + p.a * m - np.log1p(p.a * g * m) / g + 0.5 * c * m * m
    if not np.all(np.isfinite(h.imag)):
        raise DomainError(f"the CDF of {p} is not finite in double precision")
    return h.imag / np.pi


def _support_discriminant(x: np.ndarray, p: LimitLawParams) -> np.ndarray:
    """Real-coefficient discriminant whose negative set is the interior of
    the support (a negative discriminant means a complex-conjugate root
    pair, i.e. an imaginary solution branch)."""
    x = np.asarray(x, dtype=float)
    c3, c2, c1 = _cubic_coefficients(x, p)
    if c3 != 0.0:
        return 18.0 * c3 * c2 * c1 - 4.0 * c2**3 + c2**2 * c1**2 - 4.0 * c3 * c1**3 - 27.0 * c3**2
    return c1 * c1 - 4.0 * c2


def _discriminant_polynomial(p: LimitLawParams) -> np.ndarray:
    """_support_discriminant as a polynomial in x, highest power first: c2
    and c1 are linear in x and c3 constant, so it has degree <= 4."""
    b, c = p.a * p.gamma, p.semicircle_variance
    c3 = b * c
    c2 = np.array([b, p.a * b + c])
    c1 = np.array([1.0, b])
    if c3 == 0.0:
        return np.polyadd(np.polymul(c1, c1), -4.0 * c2)
    c22, c11 = np.polymul(c2, c2), np.polymul(c1, c1)
    disc = np.polyadd(18.0 * c3 * np.polymul(c2, c1), -4.0 * np.polymul(c22, c2))
    disc = np.polyadd(disc, np.polymul(c22, c11))
    disc = np.polyadd(disc, -4.0 * c3 * np.polymul(c11, c1))
    return np.polyadd(disc, [-27.0 * c3 * c3])


def _reach(p: LimitLawParams) -> float:
    """A bound on |x| over the support: the support lies within the
    Minkowski sum of the Marcenko-Pastur part (with its atom at -a, which
    exists only at gamma > 1) and the semicircle."""
    g = p.gamma
    return abs(p.a) * (g + 2.0 * math.sqrt(g) + (g > 1.0)) + 2.0 * math.sqrt(p.semicircle_variance)


def support(p: LimitLawParams) -> SupportIntervals:
    """Support intervals: the edges are the real roots of the discriminant
    at which it changes sign, Newton-polished on its direct form.

    The degenerate case nu == a^2 (pure rescaled Marcenko-Pastur) is
    returned in closed form; for gamma > 1 it carries a point mass of
    1 - 1/gamma at -a, reported as a zero-width interval plus atom fields.
    """
    if p.is_marcenko_pastur:
        g, a = p.gamma, p.a
        e1 = a * (g - 2.0 * math.sqrt(g))
        e2 = a * (g + 2.0 * math.sqrt(g))
        cont = (min(e1, e2), max(e1, e2))
        if p.gamma > 1.0:
            atom = -a
            pieces = sorted([cont, (atom, atom)])
            return SupportIntervals(
                intervals=tuple(pieces), atom_location=atom, atom_mass=1.0 - 1.0 / g
            )
        return SupportIntervals(intervals=(cont,))

    # A reach outside [2^-64, 2^64] is brought into [1, 2) by 2^-k: the law
    # (a 2^-k, nu 4^-k, gamma) is solved, whose discriminant stays in the
    # doubles (the sweep's null law at tau = 30, of reach 3.7e-67, had it
    # underflow), and its edges are scaled back exactly.  It is not checked
    # again, since the check's absolute slack does not scale.  A law keeps
    # its scale where its reach is 0 or inf, or where a 2^-k or nu 4^-k
    # would not be a normal double (as at a gamma past 1e200 or below 1e-200).
    reach = _reach(p)
    k = math.frexp(reach)[1] - 1
    exponents = [math.frexp(p.nu)[1] - 2 * k] + ([math.frexp(p.a)[1] - k] if p.a else [])
    if 2.0**-64 <= reach <= 2.0**64 or not 0 < reach < math.inf or not all(-1021 <= e <= 1024 for e in exponents):
        k = 0
    q, scale = p, 2.0**k
    if k:
        q = object.__new__(LimitLawParams)
        q.__dict__.update(a=math.ldexp(p.a, -k), nu=math.ldexp(p.nu, -2 * k), gamma=p.gamma)
        reach = _reach(q)
    # Roots past the reach are spurious (a small a puts two of them near
    # (nu - a^2) / a).  At a = 0 the edges lie on the reach itself, so the
    # bound keeps a relative margin.
    bound = reach * (1.0 + 1e-6)
    window = f"|x| < {bound * scale}"
    overflow = DomainError(f"the support discriminant of {p} overflows double precision on {window}")
    with np.errstate(over="ignore", invalid="ignore"):
        quartic = _discriminant_polynomial(q)
        # Leading terms below roundoff on the window only push np.roots off
        # scale.  A size is finite only where its coefficient is.
        size = np.abs(quartic) * bound ** np.arange(len(quartic) - 1, -1, -1)
    if not np.all(np.isfinite(size)):
        raise overflow
    quartic = quartic[np.argmax(size > np.finfo(float).eps * size.max()):]
    slope = np.polyder(quartic)
    roots = np.roots(quartic)
    xs = roots.real[(np.abs(roots.imag) <= 1e-6 * bound) & (np.abs(roots.real) < bound)]
    # The discriminant's direct form squares and multiplies its
    # coefficients, so it can leave the doubles on the window where the
    # coefficients' sizes did not, and a Newton step from a double root can
    # throw an iterate far past the window; either would drop a root.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(6):
            d, f = np.polyval(slope, xs), _support_discriminant(xs, q)
            xs = xs - np.where(d != 0, f / np.where(d == 0, 1.0, d), 0.0)
            if not (np.isfinite(d).all() and np.isfinite(f).all() and np.isfinite(xs).all()):
                raise overflow
    # Roots closer than roundoff are one root; the discriminant's sign
    # between neighbouring roots and past the outer ones picks the edges.
    xs = np.sort(xs[np.abs(xs) < bound])
    xs = xs[np.diff(xs, prepend=-np.inf) > 1e-13 * bound]
    if not xs.size:
        raise ConsistencyError(f"no support edge of {p} within {window}")
    probes = np.concatenate(([-bound], 0.5 * (xs[1:] + xs[:-1]), [bound]))
    with np.errstate(over="ignore", invalid="ignore"):
        at_probes = _support_discriminant(probes, q)
        edges = xs * scale
    if not (np.isfinite(at_probes).all() and np.isfinite(edges).all()):
        raise overflow
    inside = at_probes < 0
    edges = edges[inside[1:] != inside[:-1]]
    if inside[0] or inside[-1] or not 2 <= len(edges) <= 4:
        raise ConsistencyError(f"expected 1 or 2 support intervals for {p}, found edges {edges}")
    return SupportIntervals(intervals=tuple(zip(edges[::2].tolist(), edges[1::2].tolist())))


def free_cumulants(p: LimitLawParams, order: int) -> np.ndarray:
    """kappa_1..kappa_order at index l-1: 0, gamma*nu, then a^l gamma^(l-1),
    which is one product in the log domain, base 2, where a power leaves the
    normal doubles: the mantissas' powers times 2 to the exponents' sum."""
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    kap = np.zeros(order)
    if order >= 2:
        kap[1] = p.gamma * p.nu
    (ma, ea), (mg, eg) = math.frexp(p.a), math.frexp(p.gamma)
    for l in range(3, order + 1):
        try:  # a float power past double range raises; a product is inf
            pa, pg = p.a**l, p.gamma ** (l - 1)
        except OverflowError:
            pa = pg = 0.0
        try:
            in_range = p.a == 0.0 or min(abs(pa), pg) >= np.finfo(float).tiny
            kap[l - 1] = pa * pg if in_range else math.ldexp(ma**l * mg ** (l - 1), l * ea + (l - 1) * eg)
        except OverflowError:
            kap[l - 1] = math.inf
    if not np.all(np.isfinite(kap)):
        raise DomainError(
            f"a free cumulant of {p} up to order {order}, or a power in one, overflows double precision"
        )
    return kap


def moment(p: LimitLawParams, l: int) -> float:
    """The l-th moment from the moment-cumulant relation
    M(t) = 1 + sum_s kappa_s t^s M(t)^s of the moment series M, i.e.

        m_n = sum_{s=1..n} kappa_s [t^(n-s)] M(t)^s,   m_0 = 1,

    which sums the free cumulants over the non-crossing partitions of
    {1..n} without listing them.
    """
    if not 1 <= l <= MAX_MOMENT_ORDER:
        raise SizeCapError(f"l must be in [1, {MAX_MOMENT_ORDER}], got {l}")
    kap = free_cumulants(p, l)
    m = np.zeros(l + 1)
    m[0] = 1.0
    powers = np.zeros((l + 1, l + 1))  # powers[s, k] = [t^k] M(t)^s
    powers[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, l + 1):
            s = np.arange(1, n + 1)
            m[n] = np.dot(kap[:n], powers[s, n - s])
            # [t^n] M^s = [t^n] M^(s-1) + sum_{j<n} [t^j] M^(s-1) m_(n-j)
            powers[1:, n] = np.cumsum(powers[:-1, :n] @ m[n:0:-1])
    if not math.isfinite(m[l]):
        raise DomainError(f"moment {l} of {p} overflows double precision")
    return float(m[l])
