import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelspectra
import kernelspectra.cli as cli_module
from kernelspectra import lgraphs, sparse_pca
from kernelspectra.cli import main, parse_kernel
from kernelspectra.errors import ConfigError
from kernelspectra.hermite import MAX_DEGREE, KernelExpansion, KernelSpec, kernel_moments, project_kernel
from kernelspectra.lgraphs import SimpleLabeling, enumerate_multilabelings
from kernelspectra.limit_law import MAX_DENSITY_POINTS, MAX_MOMENT_ORDER, LimitLawParams, moment
from kernelspectra.simulate import (
    MAX_DATA_ENTRIES,
    MAX_MATRIX_SIDE,
    DataMatrixConfig,
    _eigvalsh_in_place,
    _lapacke_dsyevd,
    build_kernel_matrix,
    decompose_hermite_sum,
    remainder_variance,
    sample_data,
    spectrum,
)

from conftest import fresh_interpreter_env, peak_rss_after_each


@pytest.fixture(autouse=True)
def pinned_outputs(tmp_path, monkeypatch):
    """Run every CLI test in a clean output directory with a pinned clock."""
    monkeypatch.setenv("KERNELSPECTRA_OUT_DIR", str(tmp_path))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return tmp_path


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON lacks."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


def write_cfg(tmp_path, name, **kv):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


def test_parse_kernel_registry():
    assert parse_kernel("h1")(2.0) == pytest.approx(2.0)
    k23 = parse_kernel("h2+h3")
    x = 1.7
    expected = (x**2 - 1) / math.sqrt(2) + (x**3 - 3 * x) / math.sqrt(6)
    assert k23(x) == pytest.approx(expected, abs=1e-14)
    scaled = parse_kernel("0.5*h1+2*h3")
    assert scaled(x) == pytest.approx(0.5 * x + 2 * (x**3 - 3 * x) / math.sqrt(6), abs=1e-14)
    soft = parse_kernel("soft_threshold(2.0)")
    assert soft(4.0) == pytest.approx(2.0)
    poly = parse_kernel("odd_poly(1, 0.5)")
    assert poly(2.0) == pytest.approx(2.0 + 0.5 * 8.0)
    for bad in ("wat", "h0", "h1+", "h1h2", "h1-", "1e*h1", "", "soft_threshold(two)", "odd_poly()",
                "odd_poly(1,,3)", "odd_poly(,1)", "odd_poly(1,)"):
        with pytest.raises(ConfigError):
            parse_kernel(bad)


@pytest.mark.parametrize(
    "spec, odd",
    [("h1", True), ("h1+h3", True), ("-h1+1e+2*h3", True), ("0.5*h1-2*h3+0*h2", True),
     ("soft_threshold(2.0)", True), ("odd_poly(1,0.5)", True), ("h2+h3", False), ("h1+0.5*h2", False)],
)
def test_registry_kernels_measure_their_parity(spec, odd):
    # every registry family has the parity it used to declare
    assert _is_odd(parse_kernel(spec)) is odd


def _is_odd(k) -> bool:
    """max|k(-x) + k(x)| <= 1e-10 max(1, max|k(x)|) over x in [0, 6]."""
    x = np.linspace(0.0, 6.0, 241)
    return bool(np.max(np.abs(k(-x) + k(x))) <= 1e-10 * max(1.0, np.max(np.abs(k(x)))))


def test_parse_kernel_signed_terms():
    assert list(parse_kernel("h1-0.5*h3").evaluator.coefficients) == [1.0, 0.0, -0.5]
    assert list(parse_kernel("-h1").evaluator.coefficients) == [-1.0]
    assert list(parse_kernel("1e+2*h1").evaluator.coefficients) == [100.0]
    assert list(parse_kernel("h1+-0.5*h3").evaluator.coefficients) == [1.0, 0.0, -0.5]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_parse_kernel_round_trip(coeffs):
    spec = "+".join(f"{c!r}*h{d}" for d, c in enumerate(coeffs, start=1)).replace("+-", "-")
    assert np.array_equal(parse_kernel(spec).evaluator.coefficients, coeffs)


def test_project_kernel_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.cfg", kernel="h2+h3", degree=8)
    assert main(["project-kernel", cfg]) == 0
    doc = json.loads((tmp_path / "kernel_expansion.json").read_text())
    payload = doc["payload"]
    assert (payload["a"], payload["a2"], payload["nu"]) == (0.0, 1.0, 2.0)
    assert sorted(payload) == ["a", "a2", "coefficients", "degree", "nu", "truncation_residual"]
    assert doc["tool"] == "kernelspectra"
    assert doc["timestamp"] == "2023-11-14T22:13:20Z"


@given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_project_kernel_reads_a_hermite_sum_bit_for_bit(coeffs):
    # the coefficients of a projection by quadrature depended on the degree
    # in their last bits; a Hermite sum's are its own at every degree
    spec = "+".join(f"{c!r}*h{d}" for d, c in enumerate(coeffs, start=1)).replace("+-", "-")
    out = Path(os.environ["KERNELSPECTRA_OUT_DIR"])
    for degree in (1, 2, 12, 30, MAX_DEGREE):
        cfg = write_cfg(out, "k.cfg", kernel=spec, degree=degree)
        assert main(["project-kernel", cfg]) == 0
        payload = json.loads((out / "kernel_expansion.json").read_text())["payload"]
        own = (coeffs + [0.0] * degree)[:degree]
        assert payload["coefficients"] == own
        assert payload["nu"] == sum(c * c for c in coeffs)


def test_no_command_builds_a_quadrature(tmp_path, monkeypatch):
    # every registry kernel carries its exact expansion, and verify runs no
    # trace-moment oracle; build_quadrature and the Monte Carlo trace moments
    # are replaced at each module binding, as the benchmark tracer wraps them
    def no_call(*args, **kwargs):
        raise AssertionError("built a Gauss-Hermite rule or sampled a trace moment")

    from kernelspectra.hermite import build_quadrature

    unused = (build_quadrature, lgraphs.sample_trace_moment, lgraphs.first_order_matrix)
    for name, module in list(sys.modules.items()):
        if name == "kernelspectra" or name.startswith("kernelspectra."):
            for binding, value in list(vars(module).items()):
                if any(value is f for f in unused):
                    monkeypatch.setattr(module, binding, no_call)
    runs = [("simulate", {"kernel": "h2+h3", "n": 40, "p": 30}),
            ("sparse-pca-sweep", {"n": 40, "taus": "0.5,2.0", "trials": 1}),
            ("verify", {"l_max": 3, "d_max": 2})]
    runs += [("project-kernel", {"kernel": k}) for k in ("0.5*h1-2*h3", "odd_poly(1,0.5)", "soft_threshold(2)")]
    for command, keys in runs:
        assert main([command, write_cfg(tmp_path, "c.cfg", **keys)]) == 0, command


@pytest.mark.parametrize(
    "command, key, keys",
    [("project-kernel", "order", {"kernel": "h1", "order": 200}),
     ("project-kernel", "center", {"kernel": "h1", "center": "false"}),
     ("verify", "trace_trials", {"l_max": 2, "d_max": 1, "trace_trials": 100}),
     ("verify", "scaling_ns", {"l_max": 2, "d_max": 1, "scaling_ns": "100,400"})],
    ids=["order", "center", "trace_trials", "scaling_ns"],
)
def test_quadrature_keys_exit_2_as_unknown(tmp_path, capsys, command, key, keys):
    # the keys of the knobs that went with the Gauss-Hermite rule, with
    # verify's fixed trace-moment oracle and with its remainder-slope fit
    cfg = write_cfg(tmp_path, "k.cfg", **keys)
    assert main([command, cfg]) == 2
    assert f"unknown config key(s): {key}" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


@settings(max_examples=100, deadline=None)
@given(
    cs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    x=st.floats(-8.0, 8.0, allow_subnormal=False),
)
def test_odd_poly_is_its_monomials_and_its_hermite_sum(cs, x):
    kernel = parse_kernel(f"odd_poly({','.join(map(repr, cs))})")
    coeffs = project_kernel(kernel, 2 * len(cs) - 1).coefficients
    with mpmath.workdps(30):
        # its values are the monomial form's, to rounding
        monomial = sum(mpmath.mpf(c) * mpmath.mpf(x) ** (2 * i + 1) for i, c in enumerate(cs))
        scale = sum(abs(c) * abs(x) ** (2 * i + 1) for i, c in enumerate(cs))
        # below the normal doubles, rounding is absolute
        assert abs(kernel(x) - float(monomial)) <= 1e-14 * scale + np.finfo(float).tiny
        # x^k = sum_j F(k, j) He_{k-2j}, F(k, j) = k! / (j! (k-2j)! 2^j), and
        # He_m = sqrt(m!) h_m.  The expansion sums these terms, so its
        # rounding is of their size, |c_k F(k, j)| sqrt(m!) for a_m
        exact, coeff_scale = [mpmath.mpf(0)] * len(coeffs), [0.0] * len(coeffs)
        for i, c in enumerate(cs):
            k = 2 * i + 1
            for j in range(i + 1):
                m = k - 2 * j
                term = mpmath.mpf(c) * math.comb(k, 2 * j) * mpmath.fac2(2 * j - 1)
                exact[m - 1] += term * mpmath.sqrt(mpmath.factorial(m))
                coeff_scale[m - 1] += abs(float(term)) * math.sqrt(math.factorial(m))
        assert not np.any(coeffs[1::2])
        for got, want, bound in zip(coeffs, exact, coeff_scale):
            assert abs(got - float(want)) <= 1e-15 * bound + np.finfo(float).tiny


def test_soft_threshold_projection_command(tmp_path):
    cfg = write_cfg(tmp_path, "k.cfg", kernel="soft_threshold(2)", degree=12)
    assert main(["project-kernel", cfg]) == 0
    payload = json.loads((tmp_path / "kernel_expansion.json").read_text())["payload"]
    assert np.isfinite(payload["a"]) and np.isfinite(payload["nu"])
    assert payload["a"] > 0


@pytest.mark.parametrize("kernel", ["1e12*h3", "odd_poly(0,1e9)"])
def test_scaled_kernels_project_exactly(tmp_path, kernel):
    # the quadrature's rounding grew with the kernel, so a mean gate had to
    # as well; an exact expansion has E[k] = 0 and odd a_d = 0 to the bit
    cfg = write_cfg(tmp_path, "k.cfg", kernel=kernel)
    assert main(["project-kernel", cfg]) == 0
    payload = json.loads((tmp_path / "kernel_expansion.json").read_text())["payload"]
    assert payload["coefficients"][1::2] == [0.0] * 15
    assert payload["coefficients"][:3] == ([0.0, 0.0, 1e12] if kernel == "1e12*h3" else
                                           [3e9, 0.0, 1e9 * (math.sqrt(2) * math.sqrt(3))])
    assert payload["truncation_residual"] == 0.0


def test_kernel_with_a_constant_part_exits_2(tmp_path, monkeypatch, capsys):
    # it used to fail the quadrature's mean gate; a Hermite expansion has
    # no constant term, and a kernel that carries none fails before any work
    monkeypatch.setattr(cli_module, "parse_kernel", lambda spec: KernelSpec(lambda x: x + 1e-3))
    cfg = write_cfg(tmp_path, "k.cfg", kernel="h1")
    assert main(["project-kernel", cfg]) == 2
    assert "carries no exact Hermite expansion" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "kernel, message",
    [
        ("odd_poly(nan)", "not finite"),
        ("odd_poly(inf)", "not finite"),
        ("odd_poly(1e300,1e300)", "overflows"),  # finite, but E[k^2] is not
    ],
)
@pytest.mark.parametrize(
    "command, keys", [("project-kernel", {}), ("simulate", {"n": 20, "p": 20})]
)
def test_non_finite_kernel_moments_exit_2_before_sampling(
    tmp_path, monkeypatch, capsys, kernel, message, command, keys
):
    # project-kernel used to exit 0 with NaN or Infinity in its payload
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data for a kernel without finite moments")

    monkeypatch.setattr(cli_module, "sample_data", no_sampling)
    cfg = write_cfg(tmp_path, "k.cfg", kernel=kernel, **keys)
    assert main([command, cfg]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize("kernel", ["odd_poly(inf)", "odd_poly(1e300,1e300)"])
def test_non_finite_kernel_stderr_is_the_error_line_alone(tmp_path, kernel):
    # numpy's overflow and invalid-value RuntimeWarnings used to come first;
    # a fresh interpreter, since pytest would capture them itself
    cfg = write_cfg(tmp_path, "k.cfg", kernel=kernel)
    proc = subprocess.run([sys.executable, "-m", "kernelspectra.cli", "project-kernel", cfg],
                          env=fresh_interpreter_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_malformed_kernel_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.cfg", kernel="frobnicate", degree=8)
    assert main(["project-kernel", cfg]) == 2
    assert "kernel" in capsys.readouterr().err


def test_limit_law_command(tmp_path):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=1, moments_lmax=8)
    assert main(["limit-law", cfg]) == 0
    support_rows = (tmp_path / "limit_law_support.csv").read_text().splitlines()
    assert support_rows[0] == "interval,lo,hi"
    _, lo, hi = support_rows[1].split(",")
    assert float(lo) == pytest.approx(-2.0, abs=1e-8)
    assert float(hi) == pytest.approx(2.0, abs=1e-8)
    params = LimitLawParams(0.0, 1.0, 1.0)
    for row in (tmp_path / "limit_law_moments.csv").read_text().splitlines()[1:]:
        l_str, m_str = row.split(",")
        assert float(m_str) == pytest.approx(moment(params, int(l_str)), abs=1e-12)


@pytest.mark.parametrize("lmax, code", [(MAX_MOMENT_ORDER + 1, 3), (0, 2), (-3, 2)])
def test_limit_law_bad_moments_lmax_writes_nothing(tmp_path, capsys, lmax, code):
    cfg = write_cfg(tmp_path, "l.cfg", a=1, nu=2, gamma=0.5, moments_lmax=lmax)
    assert main(["limit-law", cfg]) == code
    assert "moments_lmax" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize("points", [-3, 0, 1])
def test_limit_law_bad_density_points_exits_2(tmp_path, capsys, points):
    # a negative count used to end in numpy's ValueError from linspace
    cfg = write_cfg(tmp_path, "l.cfg", a=1, nu=2, gamma=0.5, density_points=points)
    assert main(["limit-law", cfg]) == 2
    assert "density_points" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_limit_law_moments_to_the_cap(tmp_path):
    cfg = write_cfg(tmp_path, "l.cfg", a=1, nu=2, gamma=0.5, moments_lmax=MAX_MOMENT_ORDER)
    assert main(["limit-law", cfg]) == 0
    rows = (tmp_path / "limit_law_moments.csv").read_text().splitlines()[1:]
    assert len(rows) == MAX_MOMENT_ORDER
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


def test_limit_law_rejects_gamma_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=0)
    assert main(["limit-law", cfg]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys",
    [
        {"a": "nan", "moments_lmax": 1},
        {"a": "nan"},
        {"gamma": "inf", "moments_lmax": 1},
        {"gamma": "inf"},
        {"epsilon": "inf"},
    ],
    ids=["a-nan-lmax-1", "a-nan", "gamma-inf-lmax-1", "gamma-inf", "epsilon-inf"],
)
def test_limit_law_non_finite_inputs_exit_2(tmp_path, capsys, keys):
    # these ended in a LinAlgError traceback, or reported that moment 2
    # overflows
    cfg = write_cfg(tmp_path, "l.cfg", **{"a": 0, "nu": 1, "gamma": 1, **keys})
    assert main(["limit-law", cfg]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "overflows" not in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize("a, nu, gamma", [(0, 1e150, 1), (0, 1e150, 3), (1, 1e100, 1)])
def test_limit_law_of_a_huge_law(tmp_path, a, nu, gamma):
    # an absolute margin on the root window fell below an ulp of the edges
    # and dropped them all: an IndexError traceback
    cfg = write_cfg(tmp_path, "l.cfg", a=a, nu=nu, gamma=gamma, moments_lmax=1)
    assert main(["limit-law", cfg]) == 0
    payload = json.loads((tmp_path / "limit_law_summary.json").read_text())["payload"]
    radius = 2 * math.sqrt(gamma * nu)
    assert payload["support"] == [[pytest.approx(-radius, rel=1e-15), pytest.approx(radius, rel=1e-15)]]


@pytest.mark.parametrize("a, nu, gamma", [(1, 1.000001, 2), (0, 1.08e-6, 1), (0, 1e-30, 1), (1e-100, 1e-100, 1)])
def test_limit_law_mass_of_a_narrow_law(tmp_path, a, nu, gamma):
    # on the plotting grid the first two came out at 1.116 and 1.007; the
    # last two, narrower than about 1e-13, found no support edge
    cfg = write_cfg(tmp_path, "l.cfg", a=a, nu=nu, gamma=gamma, moments_lmax=1)
    assert main(["limit-law", cfg]) == 0
    payload = json.loads((tmp_path / "limit_law_summary.json").read_text())["payload"]
    assert payload["density_mass"] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize(
    "command, keys, words",
    [
        ("limit-law", {"a": -2.5, "nu": 7, "gamma": 3, "epsilon": 1e308}, "cubic in m(z)"),
        ("limit-law", {"a": 1, "nu": 2, "gamma": 1e-310}, "CDF"),
        ("sparse-pca-sweep", {"n": 20, "taus": "inf:1:3"}, "'taus' needs finite lo:hi ends, got 'inf:1:3'"),
    ],
    ids=["limit-law-epsilon-1e308", "limit-law-gamma-1e-310", "sweep-taus-inf-end"],
)
def test_non_finite_intermediates_exit_2_with_one_error_line(tmp_path, command, keys, words):
    # these ended in a LinAlgError traceback from the cubic solver; in exit
    # 0 with "density_mass": NaN after two RuntimeWarnings; and in two numpy
    # RuntimeWarnings from linspace before "got nan".  Run in a fresh
    # interpreter, since pytest would capture the warnings itself
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    proc = subprocess.run([sys.executable, "-m", "kernelspectra.cli", command, cfg],
                          env=fresh_interpreter_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and words in lines[0], proc.stderr
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_limit_law_discriminant_overflow_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=1, nu=1e103, gamma=1, moments_lmax=1)
    assert main(["limit-law", cfg]) == 2
    assert "overflows" in capsys.readouterr().err


@given(
    st.sampled_from([-1.0, 1.0]), st.floats(-300, 300), st.floats(-300, 300), st.floats(-300, 300),
    st.integers(1, MAX_MOMENT_ORDER),
)
def test_limit_law_of_any_law_exits_0_2_or_3(sign, log_a, log_nu, log_gamma, lmax):
    # laws log-uniform over 1e-300..1e300: a^l or gamma^(l-1) past double
    # range, in the free cumulants, raised an OverflowError traceback for
    # about one in six of them, and a support window past 1e77 a LinAlgError
    cfg = Path(os.environ[cli_module.OUT_DIR_ENV]) / "l.cfg"
    cfg.write_text(
        f"a = {sign * 10**log_a!r}\nnu = {10**log_nu!r}\ngamma = {10**log_gamma!r}\n"
        f"density_points = 3\nmoments_lmax = {lmax}\n"
    )
    assert main(["limit-law", str(cfg)]) in (0, 2, 3)


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=1, typo_key=3)
    assert main(["limit-law", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_simulate_command_odd_kernel_no_spikes(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h3", n=150, p=150, trials=1)
    assert main(["simulate", cfg]) == 0
    payload = json.loads((tmp_path / "simulate_summary.json").read_text())["payload"]
    assert payload["trials"][0]["spike_empirical"] == []
    assert payload["trials"][0]["spike_locations"] == []
    assert "ks_distance" in payload["trials"][0]


@pytest.mark.parametrize("kernel", ["1e12*h3", "1e8*h1+1e8*h3"])
def test_simulate_scaled_odd_kernel_no_spikes(tmp_path, kernel):
    # a2 was quadrature rounding here (6.4e-6 and 4.4e-10 at degree 30,
    # -4.5e-5 and 5.5e-9 at degree 2), which an absolute 1e-10 cut took for
    # spikes; the exact expansion's a2 is 0
    cfg = write_cfg(tmp_path, "s.cfg", kernel=kernel, n=100, p=80)
    assert main(["simulate", cfg]) == 0
    payload = json.loads((tmp_path / "simulate_summary.json").read_text())["payload"]
    assert payload["a2"] == 0.0
    trial = payload["trials"][0]
    assert trial["spike_locations"] == [] and trial["spike_empirical"] == []


def test_simulate_with_an_underflowing_kernel_exits_0(tmp_path):
    # a_3 / sqrt(3!) underflows to 0, and herme2poly's monomials [0.] ended
    # in an IndexError traceback from Horner's rule
    cfg = write_cfg(tmp_path, "s.cfg", kernel="-5e-324*h3", n=4, p=2)
    assert main(["simulate", cfg]) == 0
    payload = strict_json((tmp_path / "simulate_summary.json").read_text())["payload"]
    assert payload["mean_spectral_norm"] == 0.0


def test_simulate_rejects_a_degree_key(tmp_path, capsys):
    # simulate reads a, nu = E[k^2] and a2 off one degree-2 projection
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h2+h3", n=20, p=20, degree=30)
    assert main(["simulate", cfg]) == 2
    assert "degree" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


_hermite_sums = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12).filter(
    lambda cs: max(map(abs, cs)) >= 1e-3
)


@settings(max_examples=40)
@given(st.one_of(_hermite_sums, st.floats(0.5, 4.0)))
def test_every_command_reads_one_nu(kernel):
    # simulate's nu used to be sum_{d <= degree} a_d^2, below E[k^2]
    if isinstance(kernel, list):
        spec = "+".join(f"{c!r}*h{d}" for d, c in enumerate(kernel, start=1)).replace("+-", "-")
    else:
        spec = f"soft_threshold({kernel!r})"
    out = Path(os.environ["KERNELSPECTRA_OUT_DIR"])
    nus = []
    for command, keys, name in (("simulate", {"n": 4, "p": 4}, "simulate_summary.json"),
                                ("project-kernel", {}, "kernel_expansion.json")):
        assert main([command, write_cfg(out, "c.cfg", kernel=spec, **keys)]) == 0
        nus.append(json.loads((out / name).read_text())["payload"]["nu"])
    _, nu = kernel_moments(parse_kernel(spec))
    assert nus == [pytest.approx(nu, rel=1e-14, abs=0)] * 2
    if isinstance(kernel, list):
        assert nu == pytest.approx(sum(c * c for c in kernel), rel=1e-13, abs=0)


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h2+h3", n=100, p=120, trials=2, seed=5)
    assert main(["simulate", cfg]) == 0
    first_csv = (tmp_path / "simulate_eigenvalues.csv").read_bytes()
    first_json = (tmp_path / "simulate_summary.json").read_bytes()
    assert main(["simulate", cfg]) == 0
    assert (tmp_path / "simulate_eigenvalues.csv").read_bytes() == first_csv
    assert (tmp_path / "simulate_summary.json").read_bytes() == first_json


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h3", n=100, p=100, trials=1)
    assert main(["simulate", cfg]) == 0
    first = (tmp_path / "simulate_eigenvalues.csv").read_bytes()
    assert main(["simulate", cfg, "--set", "seed=99"]) == 0
    assert (tmp_path / "simulate_eigenvalues.csv").read_bytes() != first


def test_simulate_frees_x_before_the_eigensolve(tmp_path, monkeypatch):
    # X is gone when the solve starts, and the solve overwrites K in place,
    # so no p x p array sits beside K there
    drawn, solves = [], []

    def sample(*args, **kwargs):
        X = sample_data(*args, **kwargs)
        drawn.append(weakref.ref(X))
        return X

    def solve(m):
        assert drawn[-1]() is None, "X is alive at the eigensolve"
        before = m.copy()
        ev = _eigvalsh_in_place(m)
        # the solve reads K's upper triangle; nothing mirrored it
        solves.append((m.shape, np.array_equal(before, np.triu(before)), np.array_equal(m, before)))
        return ev

    monkeypatch.setattr(cli_module, "sample_data", sample)
    monkeypatch.setattr(cli_module, "_eigvalsh_in_place", solve)
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h2+h3", n=60, p=40, trials=2)
    assert main(["simulate", cfg]) == 0
    assert len(drawn) == 2
    # one solve of each trial's K, which it overwrites where LAPACKE is found
    left_as_it_was = _lapacke_dsyevd() is None
    assert solves == [((40, 40), True, left_as_it_was)] * 2


@pytest.mark.parametrize(
    "kernel, n, p",
    [
        ("soft_threshold(1.0)", 300, 700),
        ("soft_threshold(1.0)", 500, 500),
        ("soft_threshold(1.0)", 1200, 400),
        ("h1+h3", 300, 700),
        ("odd_poly(1,0.5)", 300, 700),
    ],
)
def test_simulate_solves_the_triangle_with_the_full_matrix_bits(tmp_path, kernel, n, p):
    # simulate solves its kernel matrix's upper triangle in place, with the
    # bits of spectrum on the mirrored matrix, which holds no -0.0: a -0.0
    # left in the triangle moves dsyevd's eigenvalues (soft_threshold(1.0)
    # at n = 300, p = 700 has such entries)
    cfg = write_cfg(tmp_path, "s.cfg", kernel=kernel, n=n, p=p, seed=3)
    assert main(["simulate", cfg]) == 0
    with open(tmp_path / "simulate_eigenvalues.csv") as fh:
        got = np.loadtxt(fh, delimiter=",", skiprows=1)[:, 2]
    K = build_kernel_matrix(sample_data(DataMatrixConfig(n=n, p=p, seed=3)), parse_kernel(kernel))
    assert not np.signbit(K[K == 0.0]).any()
    assert np.array_equal(got, spectrum(K).eigenvalues)


def test_simulate_peak_grows_by_about_one_p_by_p_array(tmp_path):
    # a fresh interpreter warms up at p = n = 600, then runs three trials at
    # p = n = 2000: X goes back to the OS as K fills, and the solve works in
    # K, so the peak RSS grows by K and a slab (1.2 p^2 float64 entries on
    # a 2-vCPU host; 2.1 when the solve copied K and the build held X and
    # the full Gram).  A K on glibc's heap would show only from the third
    # trial.
    p = 2000
    runs = [write_cfg(tmp_path, f"{side}.cfg", kernel="h2+h3", n=side, p=side, trials=trials)
            for side, trials in ((600, 1), (p, 3))]
    _, warm, peak = peak_rss_after_each("simulate", runs)  # kB
    assert (peak - warm) * 1024 < 1.4 * 8 * p * p


def test_sweep_peak_grows_by_about_one_p_by_p_array(tmp_path):
    # a fresh interpreter warms up at p = n = 600, then sweeps five taus at
    # p = n = 2000: each X goes back to the OS as its Gram's slabs pass it,
    # and every dense M_tau shares the Gram's array, so the peak RSS grows
    # by that array, a slab and a sparse cell (1.07 p^2 float64 entries on
    # a 2-vCPU host; 2.15 while X sat beside its Gram, and the Gram beside
    # an output buffer)
    p = 2000
    runs = [write_cfg(tmp_path, f"{side}.cfg", n=side, taus="0.5:4.0:5", trials=1)
            for side in (600, p)]
    _, warm, peak = peak_rss_after_each("sparse-pca-sweep", runs)  # kB
    assert (peak - warm) * 1024 < 1.4 * 8 * p * p


def test_sweep_peak_at_the_benchmark_config(tmp_path):
    # the benchmark's sweep op (n = p = 1000, five taus, two trials) in a
    # fresh interpreter at two BLAS threads, as the benchmark runs it on a
    # 2-vCPU host: the peak RSS grows by 17-18 MB past the RSS after the
    # CLI's import, and grew by 43 MB while the sweep imported scipy (its
    # modules and its own OpenBLAS) for CSR cells and an ARPACK solve
    cfg = write_cfg(tmp_path, "b.cfg", n=1000, p=1000, taus="0.5:4.0:5", trials=2)
    imported, peak = peak_rss_after_each(
        "sparse-pca-sweep", [cfg], OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2"
    )  # kB
    assert (peak - imported) * 1024 < 30 * 2**20


def test_simulate_size_cap_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h1", n=4, p=MAX_MATRIX_SIDE + 1)
    assert main(["simulate", cfg]) == 3


@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", {"kernel": "h1", "n": 4, "p": MAX_MATRIX_SIDE + 1}),
        ("sparse-pca-sweep", {"n": MAX_MATRIX_SIDE + 1, "taus": "1.0"}),
    ],
)
def test_matrix_side_over_the_cap_exits_3_before_sampling(tmp_path, monkeypatch, command, keys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data past the size cap")

    for module in (cli_module, sparse_pca):
        monkeypatch.setattr(module, "sample_data", no_sampling)
    monkeypatch.setattr(sparse_pca, "sample_spiked_data", no_sampling)
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    assert main([command, cfg]) == 3
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", {"kernel": "h1", "n": MAX_DATA_ENTRIES // 2 + 1, "p": 2}),
        ("sparse-pca-sweep", {"n": MAX_DATA_ENTRIES // 2 + 1, "p": 2, "taus": "1.0"}),
        ("sparse-pca-sweep", {"n": 10**400, "taus": "1.0"}),
        ("limit-law", {"a": 1, "nu": 2, "gamma": 0.5, "density_points": MAX_DENSITY_POINTS + 1}),
        ("verify", {"l_max": 2, "d_max": 1,
                    "scaling_trials": cli_module.MAX_SCALING_ENTRIES // cli_module.SCALING_NS[-1] + 1}),
        ("project-kernel", {"kernel": "h1", "degree": MAX_DEGREE + 1}),
        ("sparse-pca-sweep", {"n": 50, "taus": f"0.5:4.0:{cli_module.MAX_LIST_ENTRIES + 1}"}),
        ("simulate", {"kernel": "h1", "n": 4, "p": 4,
                      "trials": cli_module.MAX_SPECTRUM_ENTRIES // 4 + 1}),
        ("sparse-pca-sweep", {"n": 4, "taus": "1.0,2.0", "trials": sparse_pca.MAX_SWEEP_CELLS // 2 + 1}),
    ],
    ids=["simulate-n", "sweep-n", "sweep-n-past-float", "density-points", "scaling-entries",
         "projection-degree", "sweep-taus",
         "simulate-trials", "sweep-trials"],
)
def test_sizes_over_their_caps_exit_3_before_any_work(tmp_path, monkeypatch, capsys, command, keys):
    # these sizes used to end in numpy's _ArrayMemoryError traceback, and an
    # n past float range in an OverflowError one from the default sparsity
    def no_work(*args, **kwargs):
        raise AssertionError("started work past a size cap")

    for module, names in (
        (cli_module, ("sample_data", "moment", "support", "density", "enumerate_multilabelings",
                      "decompose_hermite_sum")),
        (sparse_pca, ("sample_data", "sample_spiked_data")),
        (KernelExpansion, ("expansion",)),  # project_kernel checks its degree first
    ):
        for name in names:
            monkeypatch.setattr(module, name, no_work)
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    assert main([command, cfg]) == 3
    assert "cap" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "keys, key",
    [
        ({"lam": "inf"}, "lambda"),
        ({"taus": "inf"}, "tau"),
        ({"taus": "1.0,inf"}, "tau"),
    ],
    ids=["lam-inf", "tau-inf", "one-tau-inf"],
)
def test_sweep_non_finite_inputs_exit_2_before_sampling(tmp_path, monkeypatch, capsys, keys, key):
    # these used to end in a ValueError or OverflowError traceback, or to
    # fail only after sampling every X
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data for a bad config")

    monkeypatch.setattr(sparse_pca, "sample_data", no_sampling)
    monkeypatch.setattr(sparse_pca, "sample_spiked_data", no_sampling)
    cfg = write_cfg(tmp_path, "c.cfg", **{"n": 50, "taus": "1.0", "trials": 1, **keys})
    assert main(["sparse-pca-sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "keys",
    [{"sparsity": -5}, {"sparsity_coeff": -0.3}, {"sparsity_coeff": 0}, {"sparsity": 0},
     {"sparsity": 41}, {"n": -5}],
    ids=["sparsity-negative", "coeff-negative", "coeff-zero", "sparsity-zero", "sparsity-over-p",
         "n-negative"],
)
def test_sweep_bad_sparsity_exits_2_before_sampling(tmp_path, monkeypatch, capsys, keys):
    # a negative sparsity or sparsity_coeff used to run and report
    # "sparsity": 1.  sparsity_coeff is no key now, so any value of it is an
    # unknown key, and sparsity 0, once the default's sentinel, is outside
    # [1, p].  The default, floor(0.3 sqrt(n)), took the root of a negative
    # n in a ValueError traceback
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data for a bad config")

    monkeypatch.setattr(sparse_pca, "sample_data", no_sampling)
    monkeypatch.setattr(sparse_pca, "sample_spiked_data", no_sampling)
    cfg = write_cfg(tmp_path, "c.cfg", **{"n": 40, "taus": "1.0", "trials": 1, **keys})
    assert main(["sparse-pca-sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert next(iter(keys)) in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "tau, message",
    [(30.0, "support intervals"), (50.0, "underflows"), (1e300, "underflows")],
    ids=["30", "50", "1e300"],
)
def test_sweep_tau_without_a_null_law_exits_2_before_sampling(
    tmp_path, monkeypatch, capsys, tau, message
):
    # the null prediction used to fail only after every trial's eigensolves;
    # at tau = 30 the law (a, nu) = (9.6e-130, 3.4e-134) has no edges found,
    # and past tau = 46.3 nu is no normal double (an order-200 rule read 0
    # from tau = 34.5, where its zero set covered every node).  The message
    # names the tau, which the law's own error did not
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled data for a tau without a null prediction")

    monkeypatch.setattr(sparse_pca, "sample_data", no_sampling)
    monkeypatch.setattr(sparse_pca, "sample_spiked_data", no_sampling)
    cfg = write_cfg(tmp_path, "c.cfg", n=40, taus=f"1.0,{tau}", trials=1)
    assert main(["sparse-pca-sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and f"tau = {tau}:" in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_sweep_command(tmp_path):
    cfg = write_cfg(tmp_path, "w.cfg", n=150, taus="1.0,2.0", trials=1, lam=0.9)
    assert main(["sparse-pca-sweep", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,null_mean,null_se,spiked_mean,spiked_se,prediction"
    assert len(lines) == 3
    payload = json.loads((tmp_path / "sweep_summary.json").read_text())["payload"]
    assert payload["sparsity"] == math.floor(0.3 * math.sqrt(150))


@pytest.mark.parametrize("lam, trials", [(1e300, 1), (1e200, 2)])
def test_sweep_with_an_overflowing_lambda_max_exits_2(tmp_path, capsys, lam, trials):
    # |M v|^2 overflowed in the Lanczos solve, and its inf norm passed the
    # invariant-Krylov-space test: exit 0, with the first Ritz value, 1.5e297,
    # as spiked_mean at lam = 1e300, and spiked_se written as inf at 1e200
    cfg = write_cfg(tmp_path, "w.cfg", n=20, taus="1", trials=trials, lam=lam)
    assert main(["sparse-pca-sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_sweep_with_an_overflowing_gram_writes_one_error_line(tmp_path):
    # numpy's "overflow encountered in matmul" warning and its source line
    # reached stderr first, and the error blamed the kernel; run in a fresh
    # interpreter, since pytest would capture the warning itself
    cfg = write_cfg(tmp_path, "w.cfg", n=20, taus="1", trials=2, lam=1e308)
    proc = subprocess.run([sys.executable, "-m", "kernelspectra.cli", "sparse-pca-sweep", cfg],
                          env=fresh_interpreter_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Gram" in lines[0] and "non-finite" in lines[0]
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_sweep_with_an_overflowing_gram_in_a_sparse_cell_names_the_gram(tmp_path, monkeypatch, capsys):
    # the sparse cell's own check blamed the kernel matrix, where a dense
    # cell on the same fault names the Gram
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense cell was built")

    monkeypatch.setattr(sparse_pca, "_kernel_tiles", no_dense)
    cfg = write_cfg(tmp_path, "w.cfg", n=4, p=2000, lam=1e308, taus=4.0, sparsity=1)
    assert main(["sparse-pca-sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Gram" in err and "non-finite" in err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_verify_command(tmp_path):
    cfg = write_cfg(tmp_path, "v.cfg", l_max=3, d_max=2, scaling_trials=25)
    assert main(["verify", cfg]) == 0
    payload = json.loads((tmp_path / "verify_report.json").read_text())["payload"]
    assert payload["ok"] is True
    assert all(not row["violations"] for row in payload["lemma_census"])


@pytest.mark.parametrize("keys", [{"scaling_trials": 0}], ids=["no-trials"])
def test_verify_without_a_scaling_fit_exits_2(tmp_path, capsys, keys):
    # with no trials there is no remainder to check, and nothing would fail
    cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=1, **keys)
    assert main(["verify", cfg]) == 2
    assert "scaling_trials" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_reports_an_invalid_map_image_and_exits_4(tmp_path, monkeypatch, capsys):
    # a failing image check used to raise out of the census: exit 2, no report
    monkeypatch.setattr(SimpleLabeling, "validate", lambda self: ["planted problem"])
    cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=1, scaling_trials=10)
    assert main(["verify", cfg]) == 4
    assert "verification" in capsys.readouterr().err
    payload = json.loads((tmp_path / "verify_report.json").read_text())["payload"]
    assert payload["ok"] is False
    (row,) = payload["lemma_census"]
    classes = enumerate_multilabelings(2, 1)
    assert classes and row["classes_by_max_tuple_size"] == [len(classes)]
    # each violation names its class
    assert row["violations"] == [
        {"check": "image_validity", "detail": "['planted problem']",
         "p_labels": list(c.p_labels), "n_tuples": [list(t) for t in c.n_tuples]}
        for c in classes
    ]


@pytest.mark.parametrize(
    "keys, code",
    [({"l_max": 1}, 2), ({"l_max": -3}, 2), ({"d_max": 0}, 2), ({"l_max": 7}, 3),
     ({"d_max": lgraphs.MAX_TUPLE_SIZES[2] + 1}, 3),
     ({"l_max": 4, "d_max": lgraphs.MAX_TUPLE_SIZES[4] + 1}, 3),
     ({"l_max": 5, "d_max": 12}, 3), ({"l_max": 6, "d_max": 4}, 3), ({"l_max": 4, "d_max": 453}, 3),
     ({"l_max": 3, "d_max": 7840}, 3)],
    ids=["l_max-1", "l_max-negative", "d_max-0", "l_max-over-cap", "d_max-over-cap",
         "d_max-over-the-walk-cap", "5-12", "6-4", "4-453", "3-7840"],
)
def test_verify_census_bounds_fail_before_any_work(tmp_path, monkeypatch, capsys, keys, code):
    # l_max = 1 or d_max = 0 used to check nothing and pass; l_max = 7 used
    # to exit 3 only after every smaller census had run; a d_max past its
    # cap ran a census quadratic in d_max out of memory; from l_max = 4 on,
    # a d_max up to 453 walked toward 10^6 states, at up to 5.9 GB, before
    # it exited 3
    def no_work(*args, **kwargs):
        raise AssertionError("started work on a census out of bounds")

    for name in ("enumerate_multilabelings", "decompose_hermite_sum"):
        monkeypatch.setattr(cli_module, name, no_work)
    cfg = write_cfg(tmp_path, "v.cfg", **{"l_max": 2, "d_max": 1, **keys})
    assert main(["verify", cfg]) == code
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and next(iter(keys)) in err and "Traceback" not in err
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_census_past_the_state_cap_exits_3_before_any_lemma_check(tmp_path, monkeypatch):
    # the smaller censuses used to be checked, and written up, before
    # (5, 3) tripped the cap
    def no_check(classes):
        raise AssertionError("checked the lemmas before every census had run")

    monkeypatch.setitem(lgraphs.MAX_TUPLE_SIZES, 5, 2)
    monkeypatch.setattr(cli_module, "verify_lemmas", no_check)
    cfg = write_cfg(tmp_path, "v.cfg", l_max=5, d_max=3, scaling_trials=5)
    assert main(["verify", cfg]) == 3
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_census_report_matches_the_enumeration(tmp_path):
    cfg = write_cfg(tmp_path, "v.cfg", l_max=5, d_max=3, scaling_trials=200)
    assert main(["verify", cfg]) == 0
    census = json.loads((tmp_path / "verify_report.json").read_text())["payload"]["lemma_census"]
    assert [row["l"] for row in census] == [2, 3, 4, 5]
    for row in census:
        keys = repr([c.canonical_key() for c in enumerate_multilabelings(row["l"], 3)])
        assert row["census_sha256"] == hashlib.sha256(keys.encode()).hexdigest()
        # the censuses nest: the d census counts the classes with no tuple over d
        counts = [len(enumerate_multilabelings(row["l"], d)) for d in (1, 2, 3)]
        assert list(itertools.accumulate(row["classes_by_max_tuple_size"])) == counts
        assert row["violations"] == []


def test_verify_census_deeper_than_the_recursion_limit_exits_0(tmp_path, capsys):
    # the census walk used to recurse once per chosen set and end in a
    # RecursionError traceback past max_tuple_size of about 990
    cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=2000)
    assert main(["verify", cfg]) == 0
    assert "Traceback" not in capsys.readouterr().err
    census = json.loads((tmp_path / "verify_report.json").read_text())["payload"]["lemma_census"]
    assert sum(census[0]["classes_by_max_tuple_size"]) == 2000


def test_verify_defaults_pass_on_a_seed_that_100_scaling_trials_failed(tmp_path):
    # at scaling_trials = 100 this seed's d = 3 remainder slope was -0.795,
    # over the -0.8 limit of the slope fit, though the true slope is -1; at
    # d = 2 that fit wrote -Infinity
    cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=1)
    assert main(["verify", cfg, "--set", "seed=1949364979"]) == 0
    payload = strict_json((tmp_path / "verify_report.json").read_text())["payload"]
    assert payload["ok"] is True
    rows = payload["remainder_scaling"]
    assert [row["d"] for row in rows] == [2, 3, 4]
    for row in rows:
        assert set(row) == {"d", "n", "mean_s2", "exact_s2"} and row["n"] == [100, 400, 1600]
        assert row["exact_s2"] == [remainder_variance(row["d"], n) for n in row["n"]]
    assert max(rows[0]["mean_s2"]) < cli_module.ZERO_REMAINDER_TOL**2
    assert all(0 < m <= e * (1 + cli_module.REMAINDER_K / math.sqrt(200))
               for row in rows[1:] for m, e in zip(row["mean_s2"], row["exact_s2"]))


@pytest.mark.parametrize("trials", [5, 200])
def test_verify_exits_4_when_r_is_half_its_size(tmp_path, monkeypatch, capsys, trials):
    # s + r/2 in place of s at d = 3, 4 (at d = 2 the zero-remainder check
    # would catch it alone): its mean square exceeds E[s^2] by E[r^2]/4, and
    # on each of 10000 seeds measured some cell passed the bound
    def half_r(z, d):
        dec = decompose_hermite_sum(z, d)
        return dataclasses.replace(dec, r=dec.r / 2, s=dec.s + dec.r / 2) if d > 2 else dec

    monkeypatch.setattr(cli_module, "decompose_hermite_sum", half_r)
    for seed in range(3):
        cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=1, scaling_trials=trials, seed=seed)
        assert main(["verify", cfg]) == 4
    assert "verification" in capsys.readouterr().err


def test_verify_exits_4_on_a_d2_remainder_past_rounding(tmp_path, monkeypatch):
    # E[s^2] = 0 at d = 2, so any |s| past rounding fails, however small
    def shifted(z, d):
        dec = decompose_hermite_sum(z, d)
        return dataclasses.replace(dec, s=dec.s + (10 * cli_module.ZERO_REMAINDER_TOL if d == 2 else 0.0))

    monkeypatch.setattr(cli_module, "decompose_hermite_sum", shifted)
    cfg = write_cfg(tmp_path, "v.cfg", l_max=2, d_max=1, scaling_trials=5)
    assert main(["verify", cfg]) == 4


@pytest.mark.parametrize("out", ["", ".", "sub"])
@pytest.mark.parametrize("command, keys", [("verify", {"l_max": 2, "d_max": 1, "scaling_trials": 1}),
                                           ("project-kernel", {"kernel": "h1"})])
def test_an_out_naming_a_directory_exits_2(tmp_path, capsys, command, keys, out):
    # the write used to end in an IsADirectoryError traceback
    (tmp_path / "sub").mkdir()
    cfg = write_cfg(tmp_path, "c.cfg", out=out, **keys)
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "directory" in err and "Traceback" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.cfg", "sub"]


@pytest.mark.parametrize("out, words", [("c.cfg/x", "'c.cfg/x"), ("a\0b", "NUL")], ids=["under-a-file", "nul"])
@pytest.mark.parametrize(
    "command, keys",
    [
        ("project-kernel", {"kernel": "h1"}),
        ("limit-law", {"a": 0, "nu": 1, "gamma": 1}),
        ("simulate", {"kernel": "h1", "n": 20, "p": 20}),
        ("sparse-pca-sweep", {"n": 20, "taus": "1.0", "trials": 1}),
        ("verify", {"l_max": 2, "d_max": 1, "scaling_trials": 1}),
    ],
)
def test_an_unwritable_out_exits_2_before_any_work(tmp_path, capsys, no_work, command, keys, out, words):
    # after the command's work, mkdir raised a FileExistsError traceback
    # for an out under a file, and open a ValueError for an embedded NUL
    cfg = write_cfg(tmp_path, "c.cfg", out=out, **keys)
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and words in err and "Traceback" not in err
    assert [f.name for f in tmp_path.iterdir()] == ["c.cfg"]


def test_an_output_the_os_refuses_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "mkdir", refuse)
    cfg = write_cfg(tmp_path, "c.cfg", kernel="h1", out="sub/x.json")
    assert main(["project-kernel", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "x.json" in err and "Permission denied" in err


# values that broke commands before: subnormals, overflow, non-finite and
# non-numeric words, the empty value and integers past 64 bits
ADVERSARIAL_VALUES = ["0", "-0.0", "5e-324", "2e-310", "1e200", "1e-200", "1e308", "inf", "-inf",
                      "nan", "1e999", "", "x", str(2**63), str(2**64)]


def run_fuzzed(command: str, keys: dict, json_files=(), csv_files=()) -> int:
    """Run command in process on a config of keys, and check that it ran
    or failed typed: exit 0, 2, 3 or 4, no warning, at most one error line
    and no traceback.  At exit 0 every JSON file parses with no NaN or
    Infinity, and every number of every CSV file is finite."""
    out = Path(os.environ[cli_module.OUT_DIR_ENV])
    cfg = write_cfg(out, "c.cfg", **keys)
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main([command, cfg])
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    assert err.getvalue().count("error:") <= 1 and "Traceback" not in err.getvalue()
    if code == 0:
        for name in json_files:
            strict_json((out / name).read_text())
        for name in csv_files:
            rows = (out / name).read_text().splitlines()[1:]
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    return code


@given(
    st.fixed_dictionaries(
        {"scaling_trials": st.sampled_from(["1", "5"])},
        optional={"l_max": st.sampled_from(["2", "3", "4"]), "d_max": st.sampled_from(["1", "2", "3"]),
                  "seed": st.sampled_from(["0", "7", str(2**64 - 1)]),
                  "out": st.sampled_from(["r.json", "c.cfg/x"])},
    ),
    st.dictionaries(st.sampled_from(["l_max", "d_max", "scaling_trials", "seed", "out"]),
                    st.sampled_from(ADVERSARIAL_VALUES), min_size=1, max_size=2),
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_verify_config_fuzz(small, adversarial):
    # every config of verify's keys either runs, on small sizes only, or
    # fails typed: one error line, no warning, no traceback.  A size past
    # the small ones must stop before any census or remainder draw.
    def census(l, max_tuple_size):
        assert l <= 4 and max_tuple_size <= 3, "a census past the small sizes ran"
        return enumerate_multilabelings(l, max_tuple_size)

    def decompose(z, d):
        assert z.shape[0] <= 5, "a remainder draw past the small sizes ran"
        return decompose_hermite_sum(z, d)

    keys = {**small, **adversarial}
    report = keys.get("out", "verify_report.json")
    with (mock.patch.object(cli_module, "enumerate_multilabelings", census),
          mock.patch.object(cli_module, "decompose_hermite_sum", decompose)):
        code = run_fuzzed("verify", keys, json_files=[report])
    if code == 0:
        out = Path(os.environ[cli_module.OUT_DIR_ENV])
        assert strict_json((out / report).read_text())["payload"]["ok"]


@given(
    st.sampled_from([(1.0, 2.0, 0.5), (-1.0, 1.1, 0.25), (0.0, 1.0, 1.0), (1.0, 1.05, 0.3), (1.5, 2.5, 3.0)]),
    st.fixed_dictionaries(
        {},
        optional={"density_points": st.sampled_from(["2", "3", "201"]),
                  "moments_lmax": st.sampled_from(["1", "2", "11"]),
                  "epsilon": st.sampled_from(["1e-6", "1e-2"]), "out": st.sampled_from(["law", "c.cfg/x"])},
    ),
    st.dictionaries(st.sampled_from(["a", "nu", "gamma", "density_points", "epsilon", "moments_lmax", "out"]),
                    st.sampled_from(ADVERSARIAL_VALUES), min_size=1, max_size=2),
)
@settings(max_examples=1500, derandomize=True, deadline=None)
def test_limit_law_config_fuzz(law, small, adversarial):
    # every config of limit-law's keys, from one of the benchmark's laws on
    # a grid of at most 201 points, either runs or fails typed
    keys = {"a": law[0], "nu": law[1], "gamma": law[2], "density_points": "201", "moments_lmax": "11",
            **small, **adversarial}
    prefix = keys.get("out", "limit_law")
    run_fuzzed("limit-law", keys, json_files=[f"{prefix}_summary.json"],
               csv_files=[f"{prefix}_{name}.csv" for name in ("density", "support", "moments")])


def test_limit_law_rounded_fuzz_catch_exits_2():
    # a random fuzz drew this law, rounded here, with a LinAlgError from
    # non-finite cubic coefficients; the rounded figures have nu < a^2
    keys = {"a": -35.39, "nu": 1252.43, "gamma": 2.1e238, "moments_lmax": 1}
    assert run_fuzzed("limit-law", keys) == 2


# sha256 of json.dumps(payload, indent=2, sort_keys=True) for verify at
# l_max = 5, d_max = 3, scaling_trials = 200.  Re-recorded when the census
# went from one entry per (l, d) with every class record to one entry per
# l with class counts and a key digest: only lemma_census moved, as
# VERIFY_CHECKS_SHA256 below shows, and its violation lists stayed empty.
# Re-recorded with VERIFY_CHECKS_SHA256 when the payload lost its
# trace_oracle entry: every other byte is the earlier payload's.
# Re-recorded with VERIFY_CHECKS_SHA256 when remainder_scaling went from a
# log-log slope of median |s| to mean s^2 beside the exact E[s^2] per n, on
# the same draws; lemma_census kept its bytes.
# Re-recorded with VERIFY_CHECKS_SHA256 when r came from power sums in
# place of a leave-one-out recurrence: only mean_s2 moved, by at most
# 1.4e-14 relative at d = 3, 4 and by at most 1.4e-32 at d = 2, where s is
# rounding alone.
VERIFY_PAYLOAD_SHA256 = {
    0: "4ca4da3f8d5f0ff1b8cbc67c26c58e7f39af4d6fddbe929f10dcdb6cf712054a",
    7: "1347806eaa948f3d8ce164b314c047a8d8d12076a27f3b4a51186aeb095db658",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_PAYLOAD_SHA256))
def test_verify_payload_matches_golden_hash(tmp_path, seed):
    cfg = write_cfg(tmp_path, "v.cfg", l_max=5, d_max=3, scaling_trials=200, seed=seed)
    assert main(["verify", cfg]) == 0
    payload = strict_json((tmp_path / "verify_report.json").read_text())["payload"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_PAYLOAD_SHA256[seed]


# the same payload hash without lemma_census: the remainder check and ok,
# whatever form the census report takes
# Re-recorded when r came from power sums: only mean_s2 moved.
VERIFY_CHECKS_SHA256 = {
    0: "20d2fad8c3328a2702f140504db66677c7d336b24c05cc11e5f456058d505afa",
    7: "25de7ce0b35f00153739bab666f39f697d64da30a0449af2537bcc47b6f3993a",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_CHECKS_SHA256))
def test_verify_payload_besides_the_census_matches_golden_hash(tmp_path, seed):
    cfg = write_cfg(tmp_path, "v.cfg", l_max=5, d_max=3, scaling_trials=200, seed=seed)
    assert main(["verify", cfg]) == 0
    payload = json.loads((tmp_path / "verify_report.json").read_text())["payload"]
    text = json.dumps({k: v for k, v in payload.items() if k != "lemma_census"}, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_CHECKS_SHA256[seed]


# sha256 of every output file of four commands at SOURCE_DATE_EPOCH = 0.
# limit-law's files were written by the per-value CSV formatter that came
# before the one-%-format rows; the two numpy-heavy commands' by the
# untiled kernel builder that evaluated k on every Gram entry, except the
# sweep's, written since lambda_max comes from ARPACK's eigsh in place of
# a hand-written Lanczos (the means changed by at most 8.1e-16 relative,
# the standard errors by 1.0e-13 and max_null_gap by 1.4e-14).  The
# quadrature-derived bytes (simulate_summary.json, the sweep's prediction
# column and sweep_summary.json) were re-recorded when the Gauss-Hermite
# rule moved from scipy to numpy; the eigenvalue CSV stayed.  The two
# summaries of limit-law and simulate were re-recorded when density_mass
# and ks_distance moved from grid trapezoids to the closed-form CDF
# (density_mass 0.9999925 -> 0.9999998, each ks_distance by at most 6e-5
# relative); every CSV stayed.  Both sweep files were re-recorded when the
# sweep's dense cells moved to scipy's dsyrk Gram and dsymv products on
# one triangle, and SPARSE_DENSITY_CUT from 0.15 to 0.06: the Gram kept
# its bits, the tau = 1 and 2 cells (tau = 2 went from CSR to dense) moved
# by at most 1.7e-15 relative in lambda_max and the tau = 3 cells, still
# CSR, not at all.  So the means moved by at most 6.6e-16 relative, the
# standard errors by 5.0e-13 and max_null_gap by 9.4e-15.  They hold for
# the numpy 2.4 wheel's OpenBLAS 0.3.31 build, with its Haswell kernels,
# at two BLAS threads: the Gram's and the eigensolver's rounding depend on
# the BLAS and on its thread count (both sweep files already differed
# under OPENBLAS_NUM_THREADS=1 before dsymv, whose sums also depend on the
# thread count).  So each command runs in a fresh interpreter with the
# OpenBLAS pool pinned to two threads, and the hashes hold on hosts with
# more cores.  They still depend on the CPU kernel OpenBLAS picks, and they
# cannot hold on a 1-CPU host, where OpenBLAS runs one thread whatever it
# is asked for.
# verify's report was re-recorded when its census went from every class
# record of every (l, d) to class counts and a key digest per l; only
# lemma_census moved.
# "simulate/rademacher" pins the one non-Gaussian entry law, recorded
# before sample_data could fill a caller's buffer.
# Both simulate summaries were re-recorded when simulate took a, nu = E[k^2]
# and a2 off one degree-2 projection: a, nu, a2, the spikes and the KS
# distances moved in their last bits, and no eigenvalue did.
# Both sweep files were re-recorded when the sweep's Gram went from one
# dsyrk to row slabs (a dsyrk per diagonal block, a dgemm beside it) and
# its dense M_tau to the Gram's lower triangle, solved by dsymv on that
# triangle: some Gram entries moved in their last bits, so every cell
# moved, the sparse tau = 3 ones included.  The means moved by at most
# 5.2e-16 relative, the standard errors by 5.0e-13 and max_null_gap by
# 1.4e-14; the prediction column did not move.
# sweep.csv was re-recorded again when the spiked model went from master
# seed seed + 1 to seed: only spiked_mean and spiked_se moved, as
# test_golden_sweep_null_columns_and_summary_hold shows.
# Both sweep files were re-recorded when the sweep left scipy: its Gram
# slabs became numpy's X[i0:i1] @ X[i0:].T, simulate's product, and
# lambda_max a Lanczos solve with full reorthogonalisation on numpy's
# cblas_dsymv (dense cells) and np.bincount products (sparse cells) in
# place of ARPACK's eigsh on scipy's dsymv and CSR products.  Each cell's
# lambda_max moved in its last bits: the means by at most 8.7e-16
# relative, the standard errors by 4.8e-14 and max_null_gap by 2.3e-14;
# the prediction column did not move.
# Both simulate summaries and both sweep files were re-recorded when every
# registry kernel came to carry its exact Hermite expansion, in place of an
# order-200 Gauss-Hermite rule: simulate's a, nu and a2 for h2+h3 became
# exactly 0, 2 and 1 (from 1.4e-16, 2 + 4.4e-16 and 1 + 8.9e-16), so the
# spikes moved by at most 8.9e-16 relative and the KS distances by 3.4e-15;
# the sweep's prediction column moved by -3.1e-4, +6.9e-5 and -3.8e-6 at
# tau = 1, 2 and 3, the rule's bias on the C^1 threshold kernel, and
# max_null_gap by -6.9e-5.  No eigenvalue and no null or spiked column moved.
# verify's report was re-recorded when it lost its trace_oracle entry, the
# fixed Monte Carlo check of the exact trace moment at (l, n, p) = (2, 6, 6);
# every other byte of the file stayed.
# verify's report was re-recorded when remainder_scaling went from a slope
# fit of median |s| (with "slope": -Infinity at d = 2) to mean s^2 beside
# the exact E[s^2] per n, on the same draws; lemma_census kept its bytes.
# verify's report was re-recorded when r came from power sums and the
# e_k(z) in place of a leave-one-out recurrence: only mean_s2 moved, in its
# last bits at d = 3, 4.
# Both simulate entries were re-recorded when Hermite sums of degree <= 12
# came to be evaluated by Horner's rule on their monomial coefficients, in
# place of the recurrence: 373 of each 400 eigenvalues moved, by at most
# 4.8e-15 (Gaussian) and 2.8e-15 (Rademacher) of the largest, and with them
# the norms and KS distances in their last bits.  Solving the kernel
# matrix's upper triangle in place, unmirrored, moved no byte.
# A change to derive_rng's stream paths changes these bytes and must say
# so.  Each key is the command, or the command and a label after a "/".
CLI_OUTPUT_SHA256 = {
    "limit-law": (
        {"a": 1, "nu": 2, "gamma": 0.5, "moments_lmax": 11},
        {
            "limit_law_density.csv": "ac1c4e6d7420cf3897f3682d31746e65d0d0803b104c9c0c773af7be70556034",
            "limit_law_moments.csv": "2d7df942b905e50a1ecf4eba94379994fdd7290ec0262394ae6b164a44a7af5a",
            "limit_law_summary.json": "f7be06b4eb88c37e304813432cb76150b375419c6f4db41c6042736301c014b0",
            "limit_law_support.csv": "ffd0756ce6350cebe03125868782aafbcee4615085866ac50d2d1e3faf41bcdf",
        },
    ),
    "simulate": (
        {"kernel": "h2+h3", "n": 300, "p": 200, "trials": 2},
        {
            "simulate_eigenvalues.csv": "70e85540894914f84809143115a0912cc8c83ba9da83db68d4abf65ef54518a5",
            "simulate_summary.json": "2a96cc59ed2e575441064fddb3ca4e27aa133ff62d873b80f87a5204b50c6981",
        },
    ),
    "simulate/rademacher": (
        {"kernel": "h2+h3", "n": 300, "p": 200, "trials": 2, "law": "rademacher"},
        {
            "simulate_eigenvalues.csv": "a54ffd5fc4a0a82a0566150d25952d812eea729e87dc788db73a1fb9f7bda617",
            "simulate_summary.json": "e33c43fab0921e3d5b2785952bc3296c1abbb7a3cd20b4ecea34d74522ff95d2",
        },
    ),
    "sparse-pca-sweep": (
        {"n": 300, "taus": "1.0,2.0,3.0", "trials": 2},
        {
            "sweep.csv": "8f8a060fac70358f62fe3b7ec25cd55c26d354422bf2cd11c4cbbba53754bbe0",
            "sweep_summary.json": "21579e7d05e3bf832af06b22e5f31827a65823b3ee9fc6ef0723d6699c277fa6",
        },
    ),
    "verify": (
        {"l_max": 5, "d_max": 3},
        {
            "verify_report.json": "100a131223b5deafa994feae0611c10310ae242d8d0e5c5e9f47b4cdb6e8a102",
        },
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_OUTPUT_SHA256))
def test_cli_outputs_match_golden_hashes(tmp_path, command):
    written = _golden_outputs(tmp_path, command)
    for name, data in written.items():  # verify's slope fit wrote -Infinity at d = 2
        if name.endswith(".json"):
            strict_json(data)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == (
        CLI_OUTPUT_SHA256[command][1]
    )


def _golden_outputs(tmp_path, command) -> dict[str, bytes]:
    """Each file the command writes on its CLI_OUTPUT_SHA256 config, run in
    a fresh interpreter as the golden hashes were recorded."""
    cfg = write_cfg(tmp_path, "c.cfg", **CLI_OUTPUT_SHA256[command][0])
    env = fresh_interpreter_env(
        SOURCE_DATE_EPOCH="0", OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2"
    )
    proc = subprocess.run([sys.executable, "-m", "kernelspectra.cli", command.split("/")[0], cfg],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.name != "c.cfg"}


def test_golden_sweep_null_columns_and_summary_hold(tmp_path):
    # the spiked model moves only the spiked columns: sha256 of the golden
    # sweep.csv's tau, null_mean, null_se and prediction columns, as CSV
    # lines, and of its sweep_summary.json, whose max_null_gap reads only
    # those.  Recorded before the spiked model's master seed went from
    # seed + 1 to seed, which re-recorded the whole file's hash above, and
    # re-recorded with both files when the sweep left scipy and when the
    # null prediction became exact (see above)
    written = _golden_outputs(tmp_path, "sparse-pca-sweep")
    rows = [line.split(",") for line in written["sweep.csv"].decode().splitlines()]
    kept = [rows[0].index(name) for name in ("tau", "null_mean", "null_se", "prediction")]
    null_columns = "".join(",".join(row[i] for i in kept) + "\n" for row in rows)
    assert hashlib.sha256(null_columns.encode()).hexdigest() == (
        "ff8433d497453724f257dc906c94d51724f46d74d4526ebc6efc7ead76e64bbb"
    )
    assert hashlib.sha256(written["sweep_summary.json"]).hexdigest() == (
        "21579e7d05e3bf832af06b22e5f31827a65823b3ee9fc6ef0723d6699c277fa6"
    )


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a seeded command did work before checking its seed")


@pytest.fixture
def no_work(monkeypatch):
    """Make every census, moment, projection and sampling entry of the CLI fail."""
    for name in ("enumerate_multilabelings", "moment", "project_kernel", "sample_data", "sweep_tau"):
        monkeypatch.setattr(cli_module, name, _fail_if_called)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", {"kernel": "h1", "n": 20, "p": 20}),
        ("verify", {"l_max": 6, "d_max": 3, "scaling_trials": 5}),
        ("sparse-pca-sweep", {"n": 20, "taus": "1.0", "trials": 1}),
    ],
)
def test_out_of_range_seed_exits_2(tmp_path, capsys, no_work, command, keys, seed):
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    assert main([command, cfg, "--set", f"seed={seed}"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_sweep_accepts_the_last_64_bit_seed(tmp_path):
    # the null and spiked models draw from one master seed, apart by their
    # stream tags; the spiked model drew from seed + 1, so 2^64 - 1 exited 2
    cfg = write_cfg(tmp_path, "c.cfg", n=20, taus="1.0", trials=1, seed=2**64 - 1)
    assert main(["sparse-pca-sweep", cfg]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_rng_streams_of_every_command_are_distinct(tmp_path, monkeypatch):
    # a census of every (seed, *path) that simulate, the sweep and verify
    # draw from, at 1 to 3 trials and edge seeds: distinct paths must give
    # distinct SeedSequence states (SeedSequence pads short entropy with
    # zeros, so a path and its zero-extension would share a stream)
    from kernelspectra import rng

    derive = rng.derive_rng
    paths = set()

    def recording(master_seed, *path):
        words = (x for part in path for x in (part if isinstance(part, tuple) else (part,)))
        paths.add((master_seed, *map(int, words)))
        return derive(master_seed, *path)

    monkeypatch.setattr(rng, "derive_rng", recording)
    monkeypatch.setattr(cli_module, "derive_rng", recording)
    seeds = [0, 1, 2**32 - 1, 2**64 - 2, 2**64 - 1]
    runs = [
        ("simulate", "trials", {"kernel": "h2+h3", "n": 6, "p": 5}),
        ("sparse-pca-sweep", "trials", {"n": 6, "taus": "0.5,2.0"}),
        ("verify", "scaling_trials", {"l_max": 2, "d_max": 1}),
    ]
    for command, trials_key, keys in runs:
        for seed, trials in itertools.product(seeds, (1, 2, 3)):
            cfg = write_cfg(tmp_path, "c.cfg", seed=seed, **{trials_key: trials}, **keys)
            # the census checks streams, not verdicts
            assert main([command, cfg]) in (0, 4)
    states = {tuple(np.random.SeedSequence(list(path)).generate_state(4)) for path in paths}
    assert len(paths) > 50 and len(states) == len(paths)


def test_empty_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "l.cfg"
    cfg.write_text("a = 0\n = 5\n")
    assert main(["limit-law", str(cfg)]) == 2
    assert f"{cfg}:2: empty key" in capsys.readouterr().err


def test_empty_set_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=1)
    assert main(["limit-law", cfg, "--set", " =3"]) == 2
    assert "--set expects KEY=VALUE, got ' =3'" in capsys.readouterr().err
    assert not (tmp_path / "limit_law_summary.json").exists()


def test_missing_required_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.cfg", n=100, p=100)
    assert main(["simulate", cfg]) == 2
    assert "kernel" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["limit-law", str(tmp_path / "absent.cfg")]) == 2
    assert "absent.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("epoch", ["yesterday", "1.5", "10" * 20])
def test_bad_source_date_epoch_exits_2(tmp_path, epoch):
    # a fresh interpreter, as from a shell: the check must run before any
    # import that parses SOURCE_DATE_EPOCH itself
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=1)
    proc = subprocess.run(
        [sys.executable, "-m", "kernelspectra.cli", "limit-law", cfg],
        env=fresh_interpreter_env(SOURCE_DATE_EPOCH=epoch), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "SOURCE_DATE_EPOCH" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "limit_law_summary.json").exists()


def test_no_command_imports_scipy(tmp_path):
    # scipy costs a quarter of a second and 26 MB to import, and numpy's
    # OpenBLAS serves every command; scipy is a test-only dependency
    configs = {
        "sparse-pca-sweep": {"n": 40, "taus": "0.5,3.0", "trials": 1},
        "simulate": {"kernel": "h1+0.5*h2", "n": 30, "p": 20},
        "project-kernel": {"kernel": "soft_threshold(1.5)", "degree": 6},
        "limit-law": {"a": 1, "nu": 2, "gamma": 0.5, "density_points": 101, "moments_lmax": 3},
        "verify": {"l_max": 3, "d_max": 2, "scaling_trials": 25},
    }
    runs = [[command, write_cfg(tmp_path, f"{command}.cfg", **keys)] for command, keys in configs.items()]
    script = (
        "import json, sys\n"
        "from kernelspectra.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_interpreter_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []


@pytest.mark.parametrize(
    "command, keys",
    [("simulate", {"kernel": "h2+h3", "n": 50, "p": 50}), ("sparse-pca-sweep", {"n": 50, "taus": "1.0"})],
)
def test_zero_trials_exits_2_before_any_output(tmp_path, capsys, command, keys):
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    assert main([command, cfg, "--set", "trials=0"]) == 2
    assert "trials" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_public_surface_is_pinned():
    # a new public name is added here in the same change that exports it
    assert kernelspectra.__all__ == [
        "ConfigError", "ConsistencyError", "DataMatrixConfig", "DomainError", "EntryLaw",
        "GaussHermiteRule", "HermiteSumDecomposition", "KernelExpansion", "KernelSpec",
        "KernelSpectraError", "LimitLawParams", "MultiLabeling",
        "QuadratureError", "SimpleLabeling", "SizeCapError", "SpectrumSummary", "SpikePrediction",
        "SpikedModelConfig", "SupportIntervals", "SweepResult", "ThresholdFunction",
        "VerificationError", "build_kernel_matrix", "build_quadrature", "cdf", "cubic",
        "decompose_hermite_sum", "density", "enumerate_multilabelings", "errors",
        "free_cumulants", "hermite", "hermite_eval", "hermite_sum_kernel",
        "kernel_moments", "ks_distance", "label_simplifying_map", "lgraphs", "limit_law", "moment",
        "null_prediction", "project_kernel", "rank_two_correction", "rng", "sample_data",
        "sample_spiked_data", "simulate", "sparse_pca", "spectrum", "support", "sweep_tau",
        "thresholded_covariance", "verify_lemmas",
    ]
