import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelspectra
from kernelspectra.cli import main, parse_kernel
from kernelspectra.errors import ConfigError
from kernelspectra.limit_law import LimitLawParams, moment


@pytest.fixture(autouse=True)
def pinned_outputs(tmp_path, monkeypatch):
    """Run every CLI test in a clean output directory with a pinned clock."""
    monkeypatch.setenv("KERNELSPECTRA_OUT_DIR", str(tmp_path))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return tmp_path


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
    assert soft.declared_parity == "odd"
    assert soft(4.0) == pytest.approx(2.0)
    poly = parse_kernel("odd_poly(1, 0.5)")
    assert poly(2.0) == pytest.approx(2.0 + 0.5 * 8.0)
    for bad in ("wat", "h0", "h1+", "h1h2", "h1-", "1e*h1", "", "soft_threshold(two)", "odd_poly()"):
        with pytest.raises(ConfigError):
            parse_kernel(bad)


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
    assert payload["a"] == pytest.approx(0.0, abs=1e-10)
    assert payload["nu"] == pytest.approx(2.0, abs=1e-10)
    assert payload["a2"] == pytest.approx(1.0, abs=1e-10)
    assert doc["tool"] == "kernelspectra"
    assert doc["timestamp"] == "2023-11-14T22:13:20Z"


def test_soft_threshold_projection_command(tmp_path):
    cfg = write_cfg(tmp_path, "k.cfg", kernel="soft_threshold(2)", degree=12)
    assert main(["project-kernel", cfg]) == 0
    payload = json.loads((tmp_path / "kernel_expansion.json").read_text())["payload"]
    assert np.isfinite(payload["a"]) and np.isfinite(payload["nu"])
    assert payload["a"] > 0


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


def test_limit_law_rejects_gamma_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=0)
    assert main(["limit-law", cfg]) == 2
    assert "gamma" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", a=0, nu=1, gamma=1, typo_key=3)
    assert main(["limit-law", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_simulate_command_odd_kernel_no_spikes(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h3", n=150, p=150, trials=1, degree=8)
    assert main(["simulate", cfg]) == 0
    payload = json.loads((tmp_path / "simulate_summary.json").read_text())["payload"]
    assert payload["trials"][0]["spike_empirical"] == []
    assert payload["trials"][0]["spike_locations"] == []
    assert "ks_distance" in payload["trials"][0]


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h2+h3", n=100, p=120, trials=2, degree=8, seed=5)
    assert main(["simulate", cfg]) == 0
    first_csv = (tmp_path / "simulate_eigenvalues.csv").read_bytes()
    first_json = (tmp_path / "simulate_summary.json").read_bytes()
    assert main(["simulate", cfg]) == 0
    assert (tmp_path / "simulate_eigenvalues.csv").read_bytes() == first_csv
    assert (tmp_path / "simulate_summary.json").read_bytes() == first_json


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h3", n=100, p=100, trials=1, degree=8)
    assert main(["simulate", cfg]) == 0
    first = (tmp_path / "simulate_eigenvalues.csv").read_bytes()
    assert main(["simulate", cfg, "--seed", "99"]) == 0
    assert (tmp_path / "simulate_eigenvalues.csv").read_bytes() != first


def test_simulate_size_cap_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", kernel="h1", n=4, p=13000)
    assert main(["simulate", cfg]) == 3


def test_sweep_command(tmp_path):
    cfg = write_cfg(
        tmp_path, "w.cfg", n=150, taus="1.0,2.0", trials=1, lam=0.9, sparsity_coeff=0.3
    )
    assert main(["sparse-pca-sweep", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,null_mean,null_se,spiked_mean,spiked_se,prediction"
    assert len(lines) == 3
    payload = json.loads((tmp_path / "sweep_summary.json").read_text())["payload"]
    assert payload["sparsity"] == math.floor(0.3 * math.sqrt(150))


def test_verify_command(tmp_path):
    cfg = write_cfg(
        tmp_path, "v.cfg", l_max=3, d_max=2, scaling_trials=25, trace_trials=4000,
        scaling_ns="100,400",
    )
    assert main(["verify", cfg]) == 0
    payload = json.loads((tmp_path / "verify_report.json").read_text())["payload"]
    assert payload["ok"] is True
    assert payload["trace_oracle"]["ok"] is True
    assert all(not row["violations"] for row in payload["lemma_census"])


def test_verify_detects_injected_oracle_mismatch(tmp_path, monkeypatch, capsys):
    import kernelspectra.cli as cli_mod

    monkeypatch.setattr(cli_mod, "exact_trace_moment", lambda *a, **k: 17.0)
    cfg = write_cfg(
        tmp_path, "v.cfg", l_max=2, d_max=1, scaling_trials=10, trace_trials=2000,
        scaling_ns="100,200",
    )
    assert main(["verify", cfg]) == 4
    assert "verification" in capsys.readouterr().err


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
    src = str(Path(kernelspectra.__file__).parents[1])
    env = dict(os.environ, SOURCE_DATE_EPOCH=epoch)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kernelspectra.cli", "limit-law", cfg],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "SOURCE_DATE_EPOCH" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "limit_law_summary.json").exists()


@pytest.mark.parametrize(
    "command, keys",
    [("simulate", {"kernel": "h2+h3", "n": 50, "p": 50}), ("sparse-pca-sweep", {"n": 50, "taus": "1.0"})],
)
def test_zero_trials_exits_2_before_any_output(tmp_path, capsys, command, keys):
    cfg = write_cfg(tmp_path, "c.cfg", **keys)
    assert main([command, cfg, "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))
