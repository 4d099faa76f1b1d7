"""Batch command-line front end.

Commands read a flat key=value config file (plus command-line overrides),
run deterministically from a master seed, and emit CSV payloads and a
JSON summary wrapped in a result envelope.  Exit codes: 0 success,
2 config error, 3 size-cap error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, KernelSpectraError, SizeCapError, VerificationError
from .hermite import KernelSpec, OddPolynomial, hermite_sum_kernel, project_kernel
from .lgraphs import MAX_TUPLE_SIZES, enumerate_multilabelings, verify_lemmas
from .limit_law import (
    MAX_DENSITY_POINTS,
    MAX_MOMENT_ORDER,
    LimitLawParams,
    cdf,
    density,
    moment,
    support,
)
from .rng import STREAM_SCALING, derive_rng
from .simulate import (
    MAX_DATA_ENTRIES,
    DataMatrixConfig,
    decompose_hermite_sum,
    ks_distance,
    remainder_variance,
    trial,
)
from .sparse_pca import SpikedModelConfig, ThresholdFunction, sweep_tau

OUT_DIR_ENV = "KERNELSPECTRA_OUT_DIR"
# verify's remainder cells, d = 2, 3, 4 at each n: one with E[s^2] > 0 passes
# at mean(s^2) <= E[s^2] (1 + REMAINDER_K / sqrt(T)) over T trials.  s^2 /
# E[s^2] is heavy-tailed (at d = 4, n = 100 one draw in 1e6 passed 300), so a
# mean fails mostly through one draw past T + K sqrt(T): 184 at T = 5, 1330 at
# T = 200.  Over 10000 seeds correct ratios reached 54.8 at T = 5 (one seed
# failed) and 3.26 at T = 200, while r at half its size failed a cell of d = 3
# or 4 on every seed at both.  At d = 2, s is rounding alone: |s| <= 3.6e-14.
SCALING_NS = (100, 400, 1600)
REMAINDER_K = 80.0
ZERO_REMAINDER_TOL = 1e-12
# Normals per remainder-scaling draw, scaling_trials x n: drawing them and
# decomposing them at d = 2, 3, 4 peaks at 25 B per entry (ru_maxrss at
# 1e7 and 2e7 entries), so 5.9 GB at this cap, about 1 GB short of a 7 GB
# host.
MAX_SCALING_ENTRIES = 5_900_000_000 // 25
# Entries of a lo:hi:count list.  Parsing one holds 48 B per entry (ru_maxrss
# at 2e6-8e6 entries), and a one-trial sweep over that many taus 390 B
# (ru_maxrss at n = p = 4 with 8000 and 16000 taus), so 5.9 GB at this cap.
MAX_LIST_ENTRIES = 5_900_000_000 // 400
# Eigenvalues a simulate run keeps, trials x p, for its CSV.  With each
# trial's summary that peaks at 117-129 B an eigenvalue at p = 200 and 1000
# and 257 B at p = 4 (ru_maxrss at two trial counts each), about 125 B plus
# 530 B a trial, so at most 400 B an eigenvalue from p = 2 up: 5.9 GB at
# this cap.
MAX_SPECTRUM_ENTRIES = 5_900_000_000 // 400


# ---------------------------------------------------------------------------
# kernel registry

# one signed term: [+-] [coef *] h<deg>; the coefficient may carry its own sign
_TERM_RE = re.compile(
    r"(?P<sign>[-+]?)(?:(?P<coef>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\*)?h(?P<deg>[1-9]\d*)"
)


def parse_kernel(spec: str) -> KernelSpec:
    """Built-in kernel registry.

    Accepted forms: signed sums of Hermite terms like "h1", "h2+h3",
    "0.5*h1-2*h3", "-h1+1e+2*h3"; "soft_threshold(tau)"; and
    "odd_poly(c1,c3,c5,...)" for c1*x + c3*x^3 + ... .
    """
    text = spec.strip().replace(" ", "")
    m = re.fullmatch(r"soft_threshold\((?:tau=)?([^)]+)\)", text)
    if m:
        try:
            tau = float(m.group(1))
        except ValueError as exc:
            raise ConfigError(f"kernel: bad soft_threshold argument {m.group(1)!r}") from exc
        return KernelSpec(evaluator=ThresholdFunction(tau))
    m = re.fullmatch(r"odd_poly\(([^)]*)\)", text)
    if m:
        try:  # an empty field is no coefficient: it would shift the later ones down
            cs = [float(c) for c in m.group(1).split(",")]
        except ValueError as exc:
            raise ConfigError(f"kernel: bad odd_poly coefficients {m.group(1)!r}") from exc
        return KernelSpec(evaluator=OddPolynomial(tuple(cs)))
    coeffs: dict[int, float] = {}
    pos = 0
    for tm in _TERM_RE.finditer(text):
        # terms must tile the string, and every term after the first is signed
        if tm.start() != pos or (pos and not tm.group("sign")):
            break
        pos = tm.end()
        deg = int(tm.group("deg"))
        if deg > 12:
            raise ConfigError(f"kernel: registry supports h1..h12, got h{deg}")
        coef = float(tm.group("coef")) if tm.group("coef") else 1.0
        coeffs[deg] = coeffs.get(deg, 0.0) + (-coef if tm.group("sign") == "-" else coef)
    if not coeffs or pos != len(text):
        raise ConfigError(f"kernel: cannot parse term {text[pos:]!r} in {spec!r}")
    return hermite_sum_kernel([coeffs.get(d, 0.0) for d in range(1, max(coeffs) + 1)])


# ---------------------------------------------------------------------------
# config plumbing


def parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key in {raw!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


class Config:
    """Typed accessors over the merged key-value config; every key must be
    consumed by the command or the run is rejected."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)
        self._used: set[str] = set()

    def _fetch(self, key: str, default):
        if key in self.values:
            self._used.add(key)
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def get_str(self, key: str, default=None) -> str:
        v = self._fetch(key, default)
        return v

    def _typed(self, key: str, default, kind: type, noun: str):
        v = self._fetch(key, default)
        if isinstance(v, kind) or v is None:
            return v
        try:
            return kind(v)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} must be {noun}, got {v!r}") from exc

    def get_int(self, key: str, default=None) -> int:
        return self._typed(key, default, int, "an integer")

    def get_float(self, key: str, default=None) -> float:
        return self._typed(key, default, float, "a number")

    def get_floats(self, key: str, default=None) -> list[float]:
        v = self._fetch(key, default)
        if not isinstance(v, str):
            return v
        m = re.fullmatch(r"([^:,]+):([^:,]+):(\d+)", v.strip())
        try:
            if m:
                lo, hi, count = float(m.group(1)), float(m.group(2)), int(m.group(3))
                if not (math.isfinite(lo) and math.isfinite(hi)):  # np.linspace would warn
                    raise ConfigError(f"config key {key!r} needs finite lo:hi ends, got {v!r}")
                if count > MAX_LIST_ENTRIES:
                    raise SizeCapError(
                        f"config key {key!r} asks for {count} entries, over the cap {MAX_LIST_ENTRIES}"
                    )
                return [float(x) for x in np.linspace(lo, hi, count)]
            return [float(x) for x in v.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} must be a list or lo:hi:count, got {v!r}") from exc

    def reject_unknown(self):
        unknown = set(self.values) - self._used
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")


_REQUIRED = object()


def _get_seed(cfg: Config) -> int:
    """The seed key, checked before any work: a master seed fits in 64 bits."""
    seed = cfg.get_int("seed", 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"config key 'seed' must be in [0, 2^64 - 1], got {seed}")
    return seed


def config_hash(values: dict[str, str]) -> str:
    canonical = "".join(f"{k}={values[k]}\n" for k in sorted(values))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _timestamp() -> str:
    """Wall-clock ISO timestamp; SOURCE_DATE_EPOCH pins it for
    byte-reproducible runs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            t = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigError(f"SOURCE_DATE_EPOCH must be integer seconds, got {epoch!r}") from exc
    else:
        t = datetime.datetime.now(datetime.timezone.utc)
    return t.strftime("%Y-%m-%dT%H:%M:%SZ")


def envelope(values: dict[str, str], payload: dict) -> dict:
    return {
        "tool": "kernelspectra",
        "version": __version__,
        "config_hash": config_hash(values),
        "timestamp": _timestamp(),
        "payload": payload,
    }


def _out_path(name: str) -> Path:
    """Where output `name` goes, checked before a command's work and
    without touching the disk: a name that is a directory, holds a NUL or
    lies under a file raises ConfigError."""
    base = os.environ.get(OUT_DIR_ENV)
    path = Path(name)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.is_dir():  # as the empty name is
        raise ConfigError(f"output {name!r} names a directory, not a file")
    if "\0" in name:  # os calls raise ValueError on it
        raise ConfigError(f"output {name!r} holds a NUL character")
    ancestor = next(d for d in path.parents if d.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"output {name!r} lies under {str(ancestor)!r}, which is not a directory")
    return path


def _create(path: Path):
    """path opened for writing, in new directories as needed; an OSError raises ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {str(path)!r}: {exc.strerror or exc}") from exc


def write_csv(path: Path, header: tuple[str, ...], columns) -> Path:
    """CSV of equal-length columns with LF terminators: integer columns as
    integers, the others with 17 significant digits (lossless float
    round-trips), byte-stable across runs.  Each row is one %-format over
    Python scalars."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))
    return path


def write_json(path: Path, doc: dict) -> Path:
    with _create(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_project_kernel(cfg: Config) -> int:
    kernel = parse_kernel(cfg.get_str("kernel", _REQUIRED))
    degree = cfg.get_int("degree", 30)
    path = _out_path(cfg.get_str("out", "kernel_expansion.json"))
    cfg.reject_unknown()

    exp = project_kernel(kernel, degree=degree)
    payload = {
        "coefficients": [float(c) for c in exp.coefficients],
        "a": exp.a,
        "nu": exp.nu,
        "a2": exp.a2,
        "degree": exp.degree,
        "truncation_residual": exp.residual,
    }
    write_json(path, envelope(cfg.values, payload))
    print(f"wrote {path}")
    return 0


def cmd_limit_law(cfg: Config) -> int:
    params = LimitLawParams(
        a=cfg.get_float("a", _REQUIRED),
        nu=cfg.get_float("nu", _REQUIRED),
        gamma=cfg.get_float("gamma", _REQUIRED),
    )
    points = cfg.get_int("density_points", 2001)
    eps = cfg.get_float("epsilon", 1e-6)
    lmax = cfg.get_int("moments_lmax", 8)
    prefix = cfg.get_str("out", "limit_law")
    cfg.reject_unknown()
    out = {k: _out_path(f"{prefix}_{k}") for k in ("density.csv", "support.csv", "moments.csv", "summary.json")}
    if points < 2:
        raise ConfigError(f"density_points must be >= 2, got {points}")
    if points > MAX_DENSITY_POINTS:
        raise SizeCapError(f"density_points={points} exceeds cap {MAX_DENSITY_POINTS}")
    if lmax < 1:
        raise ConfigError(f"moments_lmax must be >= 1, got {lmax}")
    if lmax > MAX_MOMENT_ORDER:
        raise SizeCapError(f"moments_lmax must be <= {MAX_MOMENT_ORDER}, got {lmax}")

    # every value before any file, so that an error leaves no partial output
    orders = range(1, lmax + 1)
    moments = [moment(params, l) for l in orders]
    sup = support(params)
    # the grid's margin around the support: 1, or 2^-40 of the norm where that
    # is more, at least 2^12 ulps of the edges (from |edge| = 2^53 on, edge +- 1
    # rounds to the edge, where cdf's mass would be read at the edges themselves)
    margin = max(1.0, 2.0**-40 * sup.norm)
    lo, hi = sup.min_edge - margin, sup.max_edge + margin
    xs = np.linspace(lo, hi, points)
    below, above = cdf(params, [lo, hi], epsilon=eps)
    write_csv(out["density.csv"], ("x", "density"), (xs, density(params, xs, epsilon=eps)))
    edges = np.array(sup.intervals, dtype=float).reshape(-1, 2)
    write_csv(out["support.csv"], ("interval", "lo", "hi"), (np.arange(len(edges)), *edges.T))
    write_csv(out["moments.csv"], ("l", "moment"), (orders, moments))
    payload = {
        "support": [[lo, hi] for lo, hi in sup.intervals],
        "norm": sup.norm,
        "max_edge": sup.max_edge,
        "min_edge": sup.min_edge,
        "atom_location": sup.atom_location,
        "atom_mass": sup.atom_mass,
        "density_mass": float(above - below - (sup.atom_mass or 0.0)),
    }
    path = write_json(out["summary.json"], envelope(cfg.values, payload))
    print(f"wrote {path}")
    return 0


_LAWS = {"gaussian": "standard_gaussian", "rademacher": "symmetric_rademacher"}


def cmd_simulate(cfg: Config) -> int:
    kernel = parse_kernel(cfg.get_str("kernel", _REQUIRED))
    n = cfg.get_int("n", _REQUIRED)
    p = cfg.get_int("p", _REQUIRED)
    law_name = cfg.get_str("law", "gaussian")
    seed = _get_seed(cfg)
    trials = cfg.get_int("trials", 1)
    prefix = cfg.get_str("out", "simulate")
    cfg.reject_unknown()
    out = {name: _out_path(f"{prefix}_{name}") for name in ("eigenvalues.csv", "summary.json")}
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials * p > MAX_SPECTRUM_ENTRIES:
        raise SizeCapError(f"trials * p = {trials * p} eigenvalues exceeds cap {MAX_SPECTRUM_ENTRIES}")
    if law_name not in _LAWS:
        raise ConfigError(f"law must be one of {sorted(_LAWS)}, got {law_name!r}")
    data_cfg = DataMatrixConfig(n=n, p=p, entry_law=_LAWS[law_name], seed=seed)

    exp = project_kernel(kernel, degree=2)  # a, a2 and nu = E[k^2]
    gamma = p / n
    params = LimitLawParams(a=exp.a, nu=exp.nu, gamma=gamma) if exp.nu > 0 else None

    eigenvalues = []
    trial_summaries = []
    for t in range(trials):
        summ, spikes = trial(data_cfg, kernel, exp.a2, stream=t)
        eigenvalues.append(summ.eigenvalues)
        entry = {
            "trial": t,
            "spectral_norm": summ.spectral_norm,
            "lambda_max": summ.lambda_max,
            "spike_locations": list(spikes.locations),
            "spike_empirical": list(spikes.empirical),
        }
        if params is not None and not (params.is_marcenko_pastur and gamma > 1):
            entry["ks_distance"] = ks_distance(summ, params)
        trial_summaries.append(entry)

    write_csv(
        out["eigenvalues.csv"],
        ("trial", "index", "eigenvalue"),
        (np.repeat(np.arange(trials), p), np.tile(np.arange(p), trials), np.concatenate(eigenvalues)),
    )
    payload = {
        "kernel": cfg.values.get("kernel"),
        "a": exp.a,
        "nu": exp.nu,
        "a2": exp.a2,
        "gamma": gamma,
        "mean_spectral_norm": float(np.mean([t["spectral_norm"] for t in trial_summaries])),
        "trials": trial_summaries,
    }
    path = write_json(out["summary.json"], envelope(cfg.values, payload))
    print(f"wrote {path}")
    return 0


def cmd_sparse_pca_sweep(cfg: Config) -> int:
    n = cfg.get_int("n", _REQUIRED)
    p = cfg.get_int("p", n)
    taus = cfg.get_floats("taus", [float(x) for x in np.linspace(0.5, 4.0, 25)])
    lam = cfg.get_float("lam", 0.9)
    sparsity = cfg.get_int("sparsity", None)
    trials = cfg.get_int("trials", 5)
    seed = _get_seed(cfg)
    prefix = cfg.get_str("out", "sweep")
    cfg.reject_unknown()
    out = {name: _out_path(f"{prefix}{name}") for name in (".csv", "_summary.json")}

    if sparsity is None:  # an n outside these bounds fails the model's own checks
        sparsity = max(1, min(p, math.floor(0.3 * math.sqrt(n)))) if 2 <= n <= MAX_DATA_ENTRIES else 1
    model = SpikedModelConfig(lam=lam, sparsity=sparsity, n=n, p=p, seed=seed)
    result = sweep_tau(model, taus, trials=trials)
    write_csv(out[".csv"], result.CSV_COLUMNS, result.columns())
    payload = {
        "n": n,
        "p": p,
        "lam": lam,
        "sparsity": sparsity,
        "trials": trials,
        "max_null_gap": float(np.max(np.abs(result.null_mean - result.prediction))),
    }
    path = write_json(out["_summary.json"], envelope(cfg.values, payload))
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: Config) -> int:
    l_max = cfg.get_int("l_max", 4)
    d_max = cfg.get_int("d_max", 3)
    scaling_trials = cfg.get_int("scaling_trials", 200)
    seed = _get_seed(cfg)
    path = _out_path(cfg.get_str("out", "verify_report.json"))
    cfg.reject_unknown()
    if scaling_trials < 1:
        raise ConfigError(f"scaling_trials must be >= 1, got {scaling_trials}")
    if scaling_trials * SCALING_NS[-1] > MAX_SCALING_ENTRIES:
        raise SizeCapError(
            f"scaling_trials={scaling_trials} exceeds cap {MAX_SCALING_ENTRIES // SCALING_NS[-1]}")
    if l_max < 2 or d_max < 1:
        raise ConfigError(f"verify needs l_max >= 2 and d_max >= 1, got {l_max} and {d_max}")
    if d_max > MAX_TUPLE_SIZES.get(l_max, 0):  # the table falls with l: its least entry up to l_max
        raise SizeCapError(f"d_max={d_max} at l_max={l_max} is past the census table {MAX_TUPLE_SIZES}")

    ok = True

    # 1. labeled-cycle lemma census.  Every census runs before any check.
    # The census at d < d_max is the d_max census's classes with no tuple
    # over d, so each class is checked once and counted by its largest tuple.
    censuses = {l: enumerate_multilabelings(l, d_max) for l in range(2, l_max + 1)}
    census = []
    for l, classes in censuses.items():
        by_size = [0] * d_max
        for c in classes:
            by_size[max(c.tuple_sizes) - 1] += 1
        keys = repr([c.canonical_key() for c in classes])
        violations = [
            {"check": v["check"], "detail": str(v["detail"]), "p_labels": list(v["labeling"].p_labels),
             "n_tuples": [list(t) for t in v["labeling"].n_tuples]}
            for v in verify_lemmas(classes)
        ]
        ok = ok and not violations
        census.append({"l": l, "classes_by_max_tuple_size": by_size, "violations": violations,
                       "census_sha256": hashlib.sha256(keys.encode()).hexdigest()})

    # 2. the remainder s of h_d(S) = q + r + s against its exact variance
    scaling = []
    ratio_bound = 1.0 + REMAINDER_K / math.sqrt(scaling_trials)
    for d in (2, 3, 4):
        mean_s2, exact_s2 = [], []
        for ni, nn in enumerate(SCALING_NS):
            gen = derive_rng(seed, STREAM_SCALING, d, ni)
            s = decompose_hermite_sum(gen.standard_normal((scaling_trials, nn)), d).s
            mean_s2.append(float(np.mean(s * s)))
            exact_s2.append(remainder_variance(d, nn))
            if exact_s2[-1] == 0.0:
                ok = ok and float(np.max(np.abs(s))) <= ZERO_REMAINDER_TOL
            else:
                ok = ok and mean_s2[-1] <= exact_s2[-1] * ratio_bound
        scaling.append({"d": d, "n": list(SCALING_NS), "mean_s2": mean_s2, "exact_s2": exact_s2})

    report = {"lemma_census": census, "remainder_scaling": scaling, "ok": ok}
    write_json(path, envelope(cfg.values, report))
    print(f"wrote {path}")
    if not ok:
        raise VerificationError("verification report contains failures; see " + str(path))
    return 0


COMMANDS = {
    "project-kernel": cmd_project_kernel,
    "limit-law": cmd_limit_law,
    "simulate": cmd_simulate,
    "sparse-pca-sweep": cmd_sparse_pca_sweep,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelspectra",
        description="Kernel random matrix experiments: limit law, simulation, "
        "covariance-thresholding sweep, combinatorial verification.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _timestamp()  # a bad SOURCE_DATE_EPOCH fails before any work
        values = parse_config_file(args.config)
        for item in args.set:
            key, eq, val = item.partition("=")
            if not (eq and key.strip()):
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            values[key.strip()] = val.strip()
        return COMMANDS[args.command](Config(values))
    except KernelSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
