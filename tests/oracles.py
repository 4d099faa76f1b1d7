"""Test oracles: the paper's proof devices, the deformed-GUE comparison
model, which shares the limit law of the kernel matrices, the
norm-concentration probe of odd kernels and the exact trace moments of the
dominant matrix; and the soft threshold's Hermite expansion in extended
precision.  No command uses them, so none checks its input: the tests call
them with valid arguments only.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from kernelspectra.lgraphs import _canonical_p_sequences
from kernelspectra.limit_law import LimitLawParams
from kernelspectra.rng import derive_rng
from kernelspectra.simulate import (
    DataMatrixConfig,
    EntryLaw,
    _extreme_eigenvalue,
    build_kernel_matrix,
    sample_data,
)
from kernelspectra.sparse_pca import INNER_FRACTION, OUTER_FRACTION


# RNG tags of the two draws, frozen so the tests see the same matrices
_STREAM_GUE = 0x31
_STREAM_WISHART = 0x32


@dataclass(frozen=True)
class DeformedModelSample:
    W: np.ndarray  # GUE, Hermitian complex
    V: np.ndarray  # Z Z^T with zero diagonal, Z real Gaussian p x n
    M: np.ndarray  # sqrt(gamma (nu - a^2)/p) W + (a/n) V


def sample_deformed_model(p_dim: int, n_dim: int, params: LimitLawParams, seed: int) -> DeformedModelSample:
    """Scaled GUE plus a zero-diagonal Wishart sharing the limit law, for
    nu >= a^2.

    GUE convention: diagonal entries N(0,1) real; off-diagonal real and
    imaginary parts each of variance 1/2.
    """
    gen_w = derive_rng(seed, _STREAM_GUE)
    gen_z = derive_rng(seed, _STREAM_WISHART)

    diag = gen_w.standard_normal(p_dim)
    re = gen_w.standard_normal((p_dim, p_dim)) / math.sqrt(2.0)
    im = gen_w.standard_normal((p_dim, p_dim)) / math.sqrt(2.0)
    upper = np.triu(re + 1j * im, 1)
    W = upper + upper.conj().T + np.diag(diag).astype(complex)

    Z = gen_z.standard_normal((p_dim, n_dim))
    V = Z @ Z.T
    np.fill_diagonal(V, 0.0)

    M = math.sqrt(params.semicircle_variance / p_dim) * W + (params.a / n_dim) * V
    return DeformedModelSample(W=W, V=V, M=M)


def concentration_probe(kernel, ratios, n: int, trials: int, seed: int) -> list[dict]:
    """Empirical ||K(X)|| over max(p/n, sqrt(p/n)) across aspect ratios,
    for an odd kernel, whose bound this is.  One row per ratio, with the
    median norm over the trials and the normalized statistic, whose
    boundedness across ratios is the checkable content.

    ||K|| is max(top(K), top(-K)), from the sweep's top-eigenvalue solve
    run on K and then on K negated in place."""
    rows = []
    for ridx, ratio in enumerate(ratios):
        p = max(2, int(round(ratio * n)))
        cfg = DataMatrixConfig(n=n, p=p, seed=seed)
        norms = []
        for t in range(trials):
            K = build_kernel_matrix(sample_data(cfg, stream=(ridx, t)), kernel)
            top = _extreme_eigenvalue(K)
            np.negative(K, out=K)
            norms.append(max(top, _extreme_eigenvalue(K)))
        med = float(np.median(norms))
        rows.append(
            {
                "ratio": p / n,
                "p": p,
                "n": n,
                "median_norm": med,
                "statistic": med / max(p / n, math.sqrt(p / n)),
            }
        )
    return rows


def exact_trace_moment(l: int, n: int, p: int, coeffs, entry_law="standard_gaussian") -> float:
    """E[Tr Q(X)^l] for the dominant (distinct-index) matrix Q of the
    kernel sum_d coeffs[d-1] h_d, evaluated exactly.

    The expectation is the labeled-cycle sum; it is evaluated by dynamic
    programming over data columns (independence factorizes the entry-
    moment products column by column), which reorganizes the sum over all
    index tuples without approximation.  Tiny sizes only.
    """
    coeffs = [float(c) for c in coeffs]
    D = len(coeffs)
    mom = EntryLaw(entry_law).moment

    total = 0.0
    for pattern in _canonical_p_sequences(l, min(l, p)):
        r = len(set(pattern))
        multiplicity = 1.0
        for t in range(r):
            multiplicity *= p - t

        # per-column subset weights: T is the set of cycle positions whose
        # tuple picks up the column's label
        weights = []
        for mask in range(2**l):
            T = [s for s in range(l) if mask >> s & 1]
            rows: dict[int, int] = {}
            for s in T:
                for i in (pattern[s], pattern[(s + 1) % l]):
                    rows[i] = rows.get(i, 0) + 1
            w = 1.0
            for count in rows.values():
                w *= mom(count)
                if w == 0.0:
                    break
            if w != 0.0:
                weights.append((tuple(T), w))

        state = {(0,) * l: 1.0}
        for _ in range(n):
            new_state: dict[tuple[int, ...], float] = {}
            for sizes, acc in state.items():
                for T, w in weights:
                    grown = list(sizes)
                    ok = True
                    for s in T:
                        grown[s] += 1
                        if grown[s] > D:
                            ok = False
                            break
                    if ok:
                        key = tuple(grown)
                        new_state[key] = new_state.get(key, 0.0) + acc * w
            state = new_state

        for sizes, acc in state.items():
            if any(d == 0 for d in sizes):
                continue
            coef = 1.0
            for d in sizes:
                coef *= coeffs[d - 1] * math.sqrt(math.factorial(d)) * n ** (-(d + 1) / 2.0)
            total += multiplicity * coef * acc
    return total


def tuple_sums(z, d: int) -> tuple[Fraction, Fraction]:
    """e_d(z) and sum_j (z_j^2 - 1) e_{d-2}(z without j), the sums behind
    decompose_hermite_sum's q and r, exactly: each float z_j is a dyadic
    rational, and the sums run over the index tuples themselves."""
    zf = [Fraction(x) for x in z]
    ed = sum(map(math.prod, itertools.combinations(zf, d)), Fraction(0))
    if d < 2:
        return ed, Fraction(0)
    loo = sum(((zj * zj - 1) * math.prod(c) for j, zj in enumerate(zf)
               for c in itertools.combinations(zf[:j] + zf[j + 1:], d - 2)), Fraction(0))
    return ed, loo


def recurrence_sums(z, d: int) -> tuple[Fraction, Fraction]:
    """The same two sums, exactly, for z too long for its tuples: by the
    e_k recurrence and the leave-one-out one, e_k(z without j) = e_k(z) -
    z_j e_{k-1}(z without j), on the integers z_j * den, den the common
    power-of-two denominator."""
    den = max(x.as_integer_ratio()[1] for x in z)
    m = [int(Fraction(x) * den) for x in z]
    e = [1] + [0] * d
    for mj in m:
        for k in range(d, 0, -1):
            e[k] += mj * e[k - 1]
    loo = 0
    for mj in m:
        eloo = 1
        for k in range(1, d - 1):
            eloo = e[k] - mj * eloo
        loo += (mj * mj - den * den) * eloo
    return Fraction(e[d], den**d), Fraction(loo if d >= 2 else 0, den**d)


def exact_hermite_split(z, d: int, sums=tuple_sums) -> tuple[float, float, float]:
    """q, r and s of decompose_hermite_sum(z, d), from the exact sums and
    the exact n^{d/2} He_d(S) = sum_m (-1)^m d!/(m! (d-2m)! 2^m)
    P_1^{d-2m} n^m, S = P_1/sqrt(n): each rounded once, then scaled by
    its irrational factor 1/(n^{d/2} sqrt(d!))."""
    n, f = len(z), math.factorial(d)
    ed, loo = sums(z, d)
    p1 = sum(map(Fraction, z))
    he = sum((-1) ** m * Fraction(f, math.factorial(m) * math.factorial(d - 2 * m) * 2**m)
             * p1 ** (d - 2 * m) * n**m for m in range(d // 2 + 1))
    scale = 1.0 / (n ** (d / 2) * math.sqrt(f))
    return (float(f * ed) * scale, float(f * loo / 2) * scale,
            float(he - f * ed - f * loo / 2) * scale)


def threshold_expansion(tau: float, degree: int):
    """a = E[xi k(xi)], nu = E[k(xi)^2] and a_1..a_degree of the soft
    threshold k_tau, as mpmath numbers at 30 digits, with no closed form:
    twice the integrals over x > 0, by Gauss-Legendre rules of
    3 * 2^3 nodes (level 4) in mpmath on the band [u, v] and on the tail
    [v, v + T], T where the weight falls to e^-200.  u and v are the
    evaluator's double breakpoints.  Each piece is x = s + t over t >= 0
    from its start s, cut where the widths, doubling from 1/s, reach 2.
    These agree with 40 digits and level 6 (96 nodes a piece) to 2e-30
    relative in a and nu, and to 1e-30 sqrt(nu) in every a_d, d <= 30, at
    ten tau from 0.05 to 45."""
    rule = GaussLegendre(mpmath.mp)
    with mpmath.workdps(30):
        t_, u, v = mpmath.mpf(tau), mpmath.mpf(INNER_FRACTION * tau), mpmath.mpf(OUTER_FRACTION * tau)
        norm = 1 / mpmath.sqrt(2 * mpmath.pi)
        nu, moments = mpmath.mpf(0), [mpmath.mpf(0)] * (degree + 1)  # E[k He_d] / 2
        for s, length, k in ((u, v - u, lambda t: mpmath.mpf(1.25) / t_ * t * t),
                             (v, mpmath.sqrt(v * v + 400) - v, lambda t: t + (v - t_))):
            cuts, width = [mpmath.mpf(0)], min(mpmath.mpf(2), 1 / s)
            while cuts[-1] < length:
                cuts.append(min(length, cuts[-1] + width))
                width = min(2 * width, mpmath.mpf(2))
            for lo, hi in zip(cuts, cuts[1:]):
                for t, w in rule.get_nodes(lo, hi, 4, mpmath.mp.prec):
                    x = s + t
                    weight = w * norm * mpmath.exp(-x * x / 2)
                    nu += weight * k(t) ** 2
                    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
                    for d in range(1, degree + 1):
                        prev, cur = cur, x * cur - (d - 1) * prev
                        moments[d] += weight * k(t) * cur
        # k He_d is even for odd d, and odd, with mean 0, for even d
        coeffs = [2 * moments[d] / mpmath.sqrt(mpmath.factorial(d)) if d % 2 else mpmath.mpf(0)
                  for d in range(1, degree + 1)]
        return coeffs[0], 2 * nu, coeffs
