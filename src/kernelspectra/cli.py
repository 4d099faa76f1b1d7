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
from .hermite import KernelSpec, build_quadrature, hermite_sum_kernel, project_kernel
from .lgraphs import (
    enumerate_multilabelings,
    exact_trace_moment,
    sample_trace_moment,
    verify_lemmas,
)
from .limit_law import LimitLawParams, density, moment, support
from .rng import derive_rng
from .simulate import (
    DataMatrixConfig,
    build_kernel_matrix,
    decompose_hermite_sum,
    ks_distance,
    rank_two_correction,
    sample_data,
    spectrum,
)
from .sparse_pca import SpikedModelConfig, ThresholdFunction, sweep_tau

OUT_DIR_ENV = "KERNELSPECTRA_OUT_DIR"


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
        return ThresholdFunction(tau).as_kernel_spec()
    m = re.fullmatch(r"odd_poly\(([^)]*)\)", text)
    if m:
        try:
            cs = [float(c) for c in m.group(1).split(",") if c]
        except ValueError as exc:
            raise ConfigError(f"kernel: bad odd_poly coefficients {m.group(1)!r}") from exc
        if not cs:
            raise ConfigError("kernel: odd_poly needs at least one coefficient")
        odd = cs

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for i, c in enumerate(odd):
                out += c * x ** (2 * i + 1)
            return out

        return KernelSpec(evaluator=evaluate, declared_parity="odd", growth_note="odd polynomial")
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
    top = max(coeffs)
    vec = [coeffs.get(d, 0.0) for d in range(1, top + 1)]
    return hermite_sum_kernel(vec)


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

    def get_int(self, key: str, default=None) -> int:
        v = self._fetch(key, default)
        if isinstance(v, int) or v is None:
            return v
        try:
            return int(v)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} must be an integer, got {v!r}") from exc

    def get_float(self, key: str, default=None) -> float:
        v = self._fetch(key, default)
        if isinstance(v, float) or v is None:
            return v
        try:
            return float(v)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} must be a number, got {v!r}") from exc

    def get_bool(self, key: str, default=None) -> bool:
        v = self._fetch(key, default)
        if isinstance(v, bool) or v is None:
            return v
        if v.lower() in ("1", "true", "yes", "on"):
            return True
        if v.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} must be a boolean, got {v!r}")

    def get_floats(self, key: str, default=None) -> list[float]:
        v = self._fetch(key, default)
        if not isinstance(v, str):
            return v
        m = re.fullmatch(r"([^:,]+):([^:,]+):(\d+)", v.strip())
        try:
            if m:
                lo, hi, count = float(m.group(1)), float(m.group(2)), int(m.group(3))
                return [float(x) for x in np.linspace(lo, hi, count)]
            return [float(x) for x in v.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} must be a list or lo:hi:count, got {v!r}") from exc

    def reject_unknown(self):
        unknown = set(self.values) - self._used
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")


_REQUIRED = object()


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
    base = os.environ.get(OUT_DIR_ENV)
    path = Path(name)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(name: str, header: tuple[str, ...], rows) -> Path:
    """CSV with 17 significant digits and LF terminators: lossless float
    round-trips, byte-stable across runs."""
    path = _out_path(name)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_json(name: str, doc: dict) -> Path:
    path = _out_path(name)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_project_kernel(cfg: Config, raw: dict[str, str]) -> int:
    kernel = parse_kernel(cfg.get_str("kernel", _REQUIRED))
    degree = cfg.get_int("degree", 30)
    order = cfg.get_int("order", max(200, 2 * degree + 4))
    center = cfg.get_bool("center", False)
    out = cfg.get_str("out", "kernel_expansion.json")
    cfg.reject_unknown()

    rule = build_quadrature(order)
    exp = project_kernel(kernel, degree=degree, rule=rule, center=center)
    payload = {
        "coefficients": [float(c) for c in exp.coefficients],
        "a": exp.a,
        "nu": exp.nu,
        "a2": exp.a2,
        "degree": exp.degree,
        "truncation_residual": exp.residual,
        "centered_by": exp.centered_by,
    }
    path = write_json(out, envelope(raw, payload))
    print(f"wrote {path}")
    return 0


def cmd_limit_law(cfg: Config, raw: dict[str, str]) -> int:
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

    sup = support(params)
    xs = np.linspace(sup.min_edge - 1.0, sup.max_edge + 1.0, points)
    dens = density(params, xs, epsilon=eps)
    write_csv(f"{prefix}_density.csv", ("x", "density"), zip(xs, dens.density))
    write_csv(
        f"{prefix}_support.csv",
        ("interval", "lo", "hi"),
        [(i, lo, hi) for i, (lo, hi) in enumerate(sup.intervals)],
    )
    write_csv(
        f"{prefix}_moments.csv",
        ("l", "moment"),
        [(l, moment(params, l)) for l in range(1, lmax + 1)],
    )
    payload = {
        "support": [[lo, hi] for lo, hi in sup.intervals],
        "norm": sup.norm,
        "max_edge": sup.max_edge,
        "min_edge": sup.min_edge,
        "atom_location": sup.atom_location,
        "atom_mass": sup.atom_mass,
        "density_mass": dens.integral(),
    }
    path = write_json(f"{prefix}_summary.json", envelope(raw, payload))
    print(f"wrote {path}")
    return 0


_LAWS = {"gaussian": "standard_gaussian", "rademacher": "symmetric_rademacher"}


def cmd_simulate(cfg: Config, raw: dict[str, str]) -> int:
    kernel = parse_kernel(cfg.get_str("kernel", _REQUIRED))
    n = cfg.get_int("n", _REQUIRED)
    p = cfg.get_int("p", _REQUIRED)
    law_name = cfg.get_str("law", "gaussian")
    seed = cfg.get_int("seed", 0)
    trials = cfg.get_int("trials", 1)
    degree = cfg.get_int("degree", 30)
    prefix = cfg.get_str("out", "simulate")
    cfg.reject_unknown()
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if law_name not in _LAWS:
        raise ConfigError(f"law must be one of {sorted(_LAWS)}, got {law_name!r}")

    exp = project_kernel(kernel, degree=degree)
    gamma = p / n
    params = LimitLawParams(a=exp.a, nu=exp.nu, gamma=gamma) if exp.nu > 0 else None
    a2 = exp.a2 if abs(exp.a2) > 1e-10 else 0.0  # quadrature noise is not a spike
    data_cfg = DataMatrixConfig(n=n, p=p, entry_law=_LAWS[law_name], seed=seed)

    rows = []
    trial_summaries = []
    for t in range(trials):
        X = sample_data(data_cfg, stream=t)
        summ = spectrum(build_kernel_matrix(X, kernel).matrix)
        rows.extend((t, i, ev) for i, ev in enumerate(summ.eigenvalues))
        spikes = rank_two_correction(X, a2, fourth_moment=data_cfg.fourth_moment)
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

    write_csv(f"{prefix}_eigenvalues.csv", ("trial", "index", "eigenvalue"), rows)
    payload = {
        "kernel": cfg.values.get("kernel"),
        "a": exp.a,
        "nu": exp.nu,
        "a2": exp.a2,
        "gamma": gamma,
        "mean_spectral_norm": float(np.mean([t["spectral_norm"] for t in trial_summaries])),
        "trials": trial_summaries,
    }
    path = write_json(f"{prefix}_summary.json", envelope(raw, payload))
    print(f"wrote {path}")
    return 0


def cmd_sparse_pca_sweep(cfg: Config, raw: dict[str, str]) -> int:
    n = cfg.get_int("n", _REQUIRED)
    p = cfg.get_int("p", n)
    taus = cfg.get_floats("taus", [float(x) for x in np.linspace(0.5, 4.0, 25)])
    lam = cfg.get_float("lam", 0.9)
    sparsity = cfg.get_int("sparsity", 0)
    coeff = cfg.get_float("sparsity_coeff", 0.3)
    trials = cfg.get_int("trials", 5)
    seed = cfg.get_int("seed", 0)
    out = cfg.get_str("out", "sweep")
    cfg.reject_unknown()

    if sparsity <= 0:
        sparsity = max(1, math.floor(coeff * math.sqrt(n)))
    null_cfg = DataMatrixConfig(n=n, p=p, seed=seed)
    spiked_cfg = SpikedModelConfig(lam=lam, sparsity=sparsity, gamma=p / n, n=n, seed=seed + 1)
    result = sweep_tau(null_cfg, spiked_cfg, taus, trials=trials)
    write_csv(f"{out}.csv", result.CSV_COLUMNS, result.rows())
    payload = {
        "n": n,
        "p": p,
        "lam": lam,
        "sparsity": sparsity,
        "trials": trials,
        "max_null_gap": float(np.max(np.abs(result.null_mean - result.prediction))),
    }
    path = write_json(f"{out}_summary.json", envelope(raw, payload))
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: Config, raw: dict[str, str]) -> int:
    l_max = cfg.get_int("l_max", 4)
    d_max = cfg.get_int("d_max", 3)
    scaling_ns = [int(x) for x in cfg.get_floats("scaling_ns", [100.0, 400.0, 1600.0])]
    scaling_trials = cfg.get_int("scaling_trials", 100)
    trace_trials = cfg.get_int("trace_trials", 20000)
    seed = cfg.get_int("seed", 0)
    out = cfg.get_str("out", "verify_report.json")
    cfg.reject_unknown()

    ok = True
    report: dict[str, object] = {}

    # 1. labeled-cycle lemma census
    census = []
    violation_count = 0
    for l in range(2, l_max + 1):
        for dmax in range(1, d_max + 1):
            classes = enumerate_multilabelings(l, dmax)
            violations = verify_lemmas(classes, dmax)
            violation_count += len(violations)
            census.append(
                {
                    "l": l,
                    "max_tuple_size": dmax,
                    "classes": len(classes),
                    "class_records": [
                        {
                            "p_labels": list(c.p_labels),
                            "n_tuples": [list(t) for t in c.n_tuples],
                            "tuple_sizes": list(c.tuple_sizes),
                            "distinct_labels": c.m,
                            "distinct_p_labels": c.distinct_p,
                            "excess": float(c.excess),
                        }
                        for c in classes
                    ],
                    "violations": [
                        {"check": v["check"], "detail": str(v["detail"])} for v in violations
                    ],
                }
            )
    report["lemma_census"] = census
    if violation_count:
        ok = False

    # 2. decomposition scale separation
    scaling = []
    for d in (2, 3, 4):
        med_s = []
        for ni, nn in enumerate(scaling_ns):
            gen = derive_rng(seed, 0x51, d, ni)
            svals = []
            for _ in range(scaling_trials):
                dec = decompose_hermite_sum(gen.standard_normal(nn), d)
                svals.append(abs(dec.s))
            med_s.append(float(np.median(svals)))
        nonzero = [(math.log(nn), math.log(mv)) for nn, mv in zip(scaling_ns, med_s) if mv > 1e-12]
        if len(nonzero) >= 2:
            xs = np.array([t[0] for t in nonzero])
            ys = np.array([t[1] for t in nonzero])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = float("-inf")  # identically-zero remainder: maximal decay
        scaling.append({"d": d, "n": scaling_ns, "median_abs_s": med_s, "slope": slope})
        if not slope <= -0.8:
            ok = False
    report["remainder_scaling"] = scaling

    # 3. trace-moment oracle
    exact = exact_trace_moment(2, 6, 6, [1.0])
    closed_form = 6 * 5 / 6.0
    mc_mean, mc_se = sample_trace_moment(2, 6, 6, [1.0], trials=trace_trials, seed=seed)
    oracle_ok = abs(exact - closed_form) < 1e-12 and abs(mc_mean - exact) <= 4 * mc_se
    report["trace_oracle"] = {
        "exact": exact,
        "closed_form": closed_form,
        "monte_carlo_mean": mc_mean,
        "monte_carlo_se": mc_se,
        "ok": oracle_ok,
    }
    if not oracle_ok:
        ok = False

    report["ok"] = ok
    path = write_json(out, envelope(raw, report))
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
    parser.add_argument("--seed", type=int, help="override the seed key")
    parser.add_argument("--out", help="override the out key")
    parser.add_argument("--trials", type=int, help="override the trials key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _timestamp()  # a bad SOURCE_DATE_EPOCH fails before any work
        values = parse_config_file(args.config)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, val = item.split("=", 1)
            values[key.strip()] = val.strip()
        if args.seed is not None:
            values["seed"] = str(args.seed)
        if args.out is not None:
            values["out"] = args.out
        if args.trials is not None:
            values["trials"] = str(args.trials)
        return COMMANDS[args.command](Config(values), values)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KernelSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
