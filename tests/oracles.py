"""Proof devices of the paper, kept as test oracles: the deformed-GUE
comparison model, which shares the limit law of the kernel matrices, and
the norm-concentration probe of odd kernels.  No command uses either, so
neither checks its input: the tests call them with valid arguments only.
"""

import math
from dataclasses import dataclass

import numpy as np

from kernelspectra.limit_law import LimitLawParams
from kernelspectra.rng import derive_rng
from kernelspectra.simulate import (
    DataMatrixConfig,
    _extreme_eigenvalue,
    build_kernel_matrix,
    sample_data,
)

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
