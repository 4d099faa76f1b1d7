"""The benchmark workloads: op inputs, warm-up ops and output checks.

Each op is one `kernelspectra` CLI command given as a config dict.  Op
inputs are fixed per workload; the workload seed only chooses each op's
`seed` key (or, for `limit-law`, the order of the laws).  Each benchmark
workload is a `Mix` of two of these.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# sum_{d=1..12} 4^(1-d) * h_d, written out term by term.  With 2^(1-d) the
# high-degree terms blow the largest Gram entries (|g| > 5.4, about one op
# in ten at n = p = 2000) up into an outlier eigenvalue 0.2-0.5 above the
# limit-law norm, so the norm check would fail on correct output.
HERMITE12 = "+".join(f"{4.0 ** (1 - d)!r}*h{d}" for d in range(1, 13))

# (a, nu, gamma) of the laws the `limit-law` ops cycle through
LAWS = ((1.0, 2.0, 0.5), (-1.0, 1.1, 0.25), (0.0, 1.0, 1.0), (1.0, 1.05, 0.3), (1.5, 2.5, 3.0))


@dataclass(frozen=True)
class Op:
    """One CLI call: `key` identifies its inputs; ops with equal keys must
    write byte-identical payloads."""

    key: str
    command: str
    config: dict
    check: Callable[[Path, int], list[str]]  # (output dir, exit code) -> failed checks


def _read_payload(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())["payload"]


def _read_csv(out_dir: Path, name: str) -> list[list[float]]:
    with open(out_dir / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


class Workload:
    name = ""
    command = ""
    op_s_nominal = 1.0  # sets the op count for a given --seconds
    uses_blas = True  # gets the serial-BLAS traced pass

    def config(self, key_index: int, seed: int) -> dict:
        raise NotImplementedError

    def warm_up_config(self) -> dict:
        raise NotImplementedError

    def warm_up_ops(self) -> list[tuple[str, dict]]:
        """(command, config) of the untimed ops run before the first timed op."""
        return [(self.command, self.warm_up_config())]

    def reference(self, ks) -> None:
        """Compute once, before any op and untraced, what the checks
        compare against."""

    def check(self, out_dir: Path, rc: int) -> list[str]:
        """Names of the failed output checks of one op."""
        raise NotImplementedError

    def plan(self, seed: int, seconds: float, traced: bool) -> list[Op]:
        """The run's fixed op list.  Untraced: the last op repeats the
        first op's inputs.  Traced: half as many ops, each run once
        untraced and once traced, which pairs every op."""
        count = max(2, round(seconds / self.op_s_nominal))
        distinct = max(1, count // 2) if traced else count - 1
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.randrange(2**31) for _ in range(distinct)]
        keys = list(range(distinct)) if traced else [*range(distinct), 0]
        return [
            Op(f"{self.name}/{seeds[k]}", self.command, self.config(k, seeds[k]), self.check)
            for k in keys
        ]


class SimulateHermite12(Workload):
    name = "simulate_hermite12"
    command = "simulate"
    op_s_nominal = 3.3

    def config(self, key_index, seed):
        return {"kernel": HERMITE12, "n": 2000, "p": 2000, "trials": 1, "seed": seed}

    def warm_up_config(self):
        return {"kernel": HERMITE12, "n": 600, "p": 600, "trials": 1, "seed": 0}

    def reference(self, ks):
        coeffs = [4.0 ** (1 - d) for d in range(1, 13)]
        law = ks.LimitLawParams(a=coeffs[0], nu=sum(c * c for c in coeffs), gamma=1.0)
        self.norm = ks.support(law).norm

    def check(self, out_dir, rc):
        if rc != 0:
            return ["exit_code"]
        trial = _read_payload(out_dir, "simulate_summary.json")["trials"][0]
        eigs = _read_csv(out_dir, "simulate_eigenvalues.csv")
        failed = []
        if not trial["ks_distance"] < 0.05:
            failed.append("ks_distance<0.05")
        if not abs(trial["spectral_norm"] - self.norm) < 0.15:
            failed.append("|spectral_norm-support.norm|<0.15")
        if len(eigs) != 2000 or not all(math.isfinite(r[2]) for r in eigs):
            failed.append("eigenvalue_csv")
        return failed


class SparsePcaSweep(Workload):
    name = "sparse_pca_sweep"
    command = "sparse-pca-sweep"
    op_s_nominal = 2.7

    def config(self, key_index, seed):
        return {"n": 1000, "p": 1000, "taus": "0.5:4.0:5", "trials": 2, "seed": seed}

    def warm_up_config(self):
        return {"n": 500, "p": 500, "taus": "2.0", "trials": 1, "seed": 0}

    def check(self, out_dir, rc):
        if rc != 0:
            return ["exit_code"]
        payload = _read_payload(out_dir, "sweep_summary.json")
        rows = _read_csv(out_dir, "sweep.csv")
        failed = []
        if not payload["max_null_gap"] < 0.1:
            failed.append("max_null_gap<0.1")
        if len(rows) != 5 or not all(math.isfinite(v) for r in rows for v in r):
            failed.append("sweep_csv")
        return failed


class LimitLawMoments(Workload):
    name = "limit_law_moments"
    command = "limit-law"
    op_s_nominal = 1.4
    uses_blas = False

    def config(self, key_index, seed):
        a, nu, gamma = LAWS[key_index]
        return {"a": a, "nu": nu, "gamma": gamma, "moments_lmax": 11,
                "density_points": 20001, "epsilon": 1e-7}

    def warm_up_config(self):
        return {"a": 1.0, "nu": 2.0, "gamma": 0.5, "moments_lmax": 3,
                "density_points": 201, "epsilon": 1e-7}

    def plan(self, seed, seconds, traced):
        """Whole rounds of the laws, so that each run does the same work:
        untraced, at least one round and then its first op again; traced,
        one round.  The seed sets the order."""
        rounds = 1 if traced else max(1, round(seconds / (self.op_s_nominal * len(LAWS))))
        order = list(range(len(LAWS)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        keys = order * rounds + ([] if traced else order[:1])
        return [Op(f"{self.name}/{k}", self.command, self.config(k, seed), self.check)
                for k in keys]

    def check(self, out_dir, rc):
        """Criterion-4 check: the density integral of x^l, l <= 8, matches
        the moments CSV to 1e-4 relative to max(|m_l|, 0.05 * norm^l)."""
        if rc != 0:
            return ["exit_code"]
        summary = _read_payload(out_dir, "limit_law_summary.json")
        xs, rho = np.asarray(_read_csv(out_dir, "limit_law_density.csv")).T
        moments = dict((int(l), m) for l, m in _read_csv(out_dir, "limit_law_moments.csv"))
        worst = 0.0
        for l in range(1, 9):
            numeric = float(np.trapezoid(rho * xs**l, xs))
            if summary["atom_mass"]:
                numeric += summary["atom_mass"] * summary["atom_location"] ** l
            scale = max(abs(moments[l]), 0.05 * summary["norm"] ** l)
            worst = max(worst, abs(moments[l] - numeric) / scale)
        return [] if worst < 1e-4 else ["moments_vs_density<1e-4"]


class VerifyCensus(Workload):
    name = "verify_census"
    command = "verify"
    op_s_nominal = 5.0
    uses_blas = False

    def config(self, key_index, seed):
        # 200 scaling trials, as in acceptance criterion 6.  At the default
        # 100 the remainder-scaling slopes (mean -1.0, sd 0.064 over 60
        # seeds) cross verify's -0.8 limit on a few seeds in a thousand
        # (op seed 1949364979: d = 3 slope -0.795), so `ok` would fail
        # on correct output.
        return {"l_max": 5, "d_max": 3, "scaling_trials": 200, "seed": seed}

    def warm_up_config(self):
        return {"l_max": 2, "d_max": 1, "scaling_trials": 5, "trace_trials": 100, "seed": 0}

    def check(self, out_dir, rc):
        if rc != 0:
            return ["exit_code"]
        return [] if _read_payload(out_dir, "verify_report.json")["ok"] is True else ["ok"]


class Mix(Workload):
    """The ops of several workloads in one run, each part given a fixed
    share of the run's seconds and planned as it would be alone."""

    def __init__(self, name: str, parts: list[tuple[Workload, float]]):
        self.name = name
        self.parts = parts
        self.uses_blas = any(w.uses_blas for w, _ in parts)

    def warm_up_ops(self):
        return [op for w, _ in self.parts for op in w.warm_up_ops()]

    def reference(self, ks):
        for w, _ in self.parts:
            w.reference(ks)

    def plan(self, seed, seconds, traced):
        return [op for w, share in self.parts for op in w.plan(seed, seconds * share, traced)]


# `verify` and `limit-law` are interpreter-bound, and on a shared host the
# speed of interpreted code drifts by up to 40% over tens of seconds to
# minutes.  Ten runs of either command alone spread by up to 0.34 (IQR /
# median of run_s and op_s.p50), against a bound of 0.25.  So each shares
# its runs with vectorised numpy and LAPACK ops, which drift less: its
# layers are all in the trace and its time is in run_s.  The shares keep
# the numpy ops well over half of each run's ops, so that op_s.p50 is the
# median of one kind of op.
WORKLOADS = {
    w.name: w
    for w in (
        Mix("simulate_verify", [(SimulateHermite12(), 2 / 3), (VerifyCensus(), 1 / 3)]),
        Mix("sparse_pca_limit_law", [(SparsePcaSweep(), 4 / 5), (LimitLawMoments(), 1 / 5)]),
    )
}
