import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closed_forms import wide_random_pairs
from qmu import BLAS_THREAD_VARIABLES
from qmu.cli import CHECKS, SWEEPS, build_parser, main
from qmu.distributions import Coupling, Distribution, quantile_coupling, w2_quantile
from qmu.grid import GridAliasingError, VonNeumannModel
from qmu.scenarios import SCENARIOS, RunConfig, run_scenario
from qmu.serialize import (
    decode_matrix,
    dumps_json,
    encode_float,
    encode_matrix,
    observable_from_json,
    observable_to_json,
    read_distribution_csv,
    scheme_from_json,
    scheme_to_json,
    write_coupling_csv,
)


def write_distribution_csv(dist: Distribution, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "probability"])
        for v, p in zip(dist.support, dist.probs):
            writer.writerow([repr(float(v)), repr(float(p))])


def reference_read_distribution_csv(path) -> Distribution:
    """The ``csv``-module reader that ``read_distribution_csv`` replaced."""
    values: list[float] = []
    probs: list[float] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() in ("value", "x"):
                continue
            if len(row) < 2:
                raise ValueError(f"distribution CSV row has {len(row)} columns, need 2")
            values.append(float(row[0]))
            probs.append(float(row[1]))
    if not values:
        raise ValueError("distribution CSV is empty")
    order = np.argsort(values)
    return Distribution(np.asarray(values)[order], np.asarray(probs)[order])


def reference_write_coupling_csv(coupling, path):
    """The ``csv.writer`` writer that ``write_coupling_csv`` replaced."""
    keep = coupling.weights > 0
    xs = coupling.row_support[coupling.rows[keep]].tolist()
    ys = coupling.col_support[coupling.cols[keep]].tolist()
    ws = coupling.weights[keep].tolist()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row_value", "col_value", "weight"])
        writer.writerows([repr(x), repr(y), repr(w)] for x, y, w in zip(xs, ys, ws))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_list(capsys):
    code, out, _ = run_cli(capsys, "scenario", "list")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "qmu/1"
    names = [s["name"] for s in data["scenarios"]]
    assert "qubit-triple-unbiased-zero" in names
    assert names == sorted(names)


def test_scenario_run_single_and_exit_codes(capsys):
    code, out, err = run_cli(capsys, "scenario", "run", "swap-scheme")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["scenarios"][0]["values"]["eps_no"] == pytest.approx(0.0, abs=1e-10)
    assert "PASS" in err
    code, _, _ = run_cli(capsys, "scenario", "run", "does-not-exist")
    assert code == 2


def test_scenario_failed_expectation_exits_3(capsys):
    # Removing the displacement makes the strict-inequality expectation of
    # the displaced phase-space scenario fail: exit code 3, passed false.
    code, out, _ = run_cli(
        capsys, "scenario", "run", "husimi-displaced", "--set", "center=0.0"
    )
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_scenario_override_flag(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "run", "identity-scheme", "--set", "sigma_bloch=[0,0,1]"
    )
    assert code == 0
    data = json.loads(out)
    values = data["scenarios"][0]["values"]
    assert values["w2_approximation"] > 1.0


def test_wasserstein_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_distribution_csv(Distribution([0.0], [1.0]), a)
    write_distribution_csv(Distribution([0.0, 2.0], [0.5, 0.5]), b)
    coupling_path = tmp_path / "coupling.csv"
    code, out, err = run_cli(
        capsys, "wasserstein", str(a), str(b), "--oracle", "--coupling", str(coupling_path)
    )
    assert code == 0
    assert out.strip() == "1.41421356237"
    assert "oracle agrees" in err
    rows = coupling_path.read_text().strip().splitlines()
    assert rows[0] == "row_value,col_value,weight"
    assert len(rows) == 3


def test_wasserstein_identical_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    write_distribution_csv(Distribution([-1.0, 1.0], [0.25, 0.75]), a)
    code, out, _ = run_cli(capsys, "wasserstein", str(a), str(a))
    assert code == 0
    assert float(out.strip()) == 0.0


def test_wasserstein_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n0.5\n")
    good = tmp_path / "good.csv"
    write_distribution_csv(Distribution([0.0], [1.0]), good)
    code, _, err = run_cli(capsys, "wasserstein", str(bad), str(good))
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("rows", ["0.0,0.5\nnan,0.5\n", "0.0,1.0\n1.0,nan\n"])
def test_wasserstein_rejects_non_finite_csv_entries(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    bad.write_text("value,probability\n" + rows)
    good = tmp_path / "good.csv"
    write_distribution_csv(Distribution([0.0, 1.0], [0.5, 0.5]), good)
    code, out, err = run_cli(capsys, "wasserstein", str(bad), str(good))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


def test_wasserstein_random_pair_oracle(tmp_path, capsys):
    rng = np.random.default_rng(3)
    support = np.sort(rng.uniform(-2, 2, 6))
    probs = rng.dirichlet(np.ones(6))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_distribution_csv(Distribution(support, probs), a)
    support2 = np.sort(rng.uniform(-2, 2, 4))
    probs2 = rng.dirichlet(np.ones(4))
    write_distribution_csv(Distribution(support2, probs2), b)
    code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), "--oracle")
    assert code == 0
    assert "oracle agrees" in err


def test_wasserstein_oracle_scale_limit(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_distribution_csv(Distribution(np.arange(65.0), np.full(65, 1 / 65)), a)
    write_distribution_csv(Distribution(np.arange(65.0) + 0.5, np.full(65, 1 / 65)), b)
    code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), "--oracle")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "64" in err


def test_wasserstein_far_apart_point_masses(tmp_path, capsys):
    # Squaring the 2e200 gap overflows; the kernel rescales by a power of two.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution([-1e200], [1.0]), a)
    write_distribution_csv(Distribution([1e200], [1.0]), b)
    coupling_path = tmp_path / "coupling.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "wasserstein", str(a), str(b)) == (0, "2e+200\n", "")
        assert run_cli(capsys, "wasserstein", str(a), str(b), "--oracle") == (
            0, "2e+200\n", "oracle agrees: 2e+200\n")
        assert run_cli(
            capsys, "wasserstein", str(a), str(b), "--coupling", str(coupling_path)
        ) == (0, "2e+200\n", "")
    assert coupling_path.read_bytes() == b"row_value,col_value,weight\r\n-1e+200,1e+200,1.0\r\n"


@pytest.mark.parametrize("extra", [(), ("--oracle",), ("--coupling", "{coupling}")])
def test_wasserstein_above_the_float_range_exits_2(tmp_path, capsys, extra):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution([-1.7e308], [1.0]), a)
    write_distribution_csv(Distribution([1.7e308], [1.0]), b)
    coupling_path = tmp_path / "coupling.csv"
    argv = [arg.format(coupling=coupling_path) for arg in extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), *argv)
    assert (code, out) == (2, "")
    assert err == f"{a}, {b}: the 2-deviation exceeds the float range\n"
    assert not coupling_path.exists()


def test_wasserstein_oracle_agrees_on_far_out_supports(tmp_path, capsys):
    # Values near 1e8 differ from the LP's in their last bits, beyond 1e-9.
    rng = np.random.default_rng(8)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for _ in range(100):
        m, n = rng.integers(2, 10, 2)
        write_distribution_csv(
            Distribution(np.sort(rng.uniform(-1e8, 1e8, m)), rng.dirichlet(np.ones(m))), a)
        write_distribution_csv(
            Distribution(np.sort(rng.uniform(-1e8, 1e8, n)), rng.dirichlet(np.ones(n))), b)
        code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), "--oracle")
        assert code == 0, err
        assert err.startswith("oracle agrees: ")


def narrow_pair(seed):
    """26 against 30 points within [-0.004, 0.004]."""
    rng = np.random.default_rng(seed)
    return tuple(Distribution(np.sort(rng.uniform(-0.004, 0.004, k)), rng.dirichlet(np.ones(k)))
                 for k in (26, 30))


# A float LP called the third wide pair infeasible (exit 1 with a traceback)
# and missed the 1e-9 gate by about 1e-6 on the fourth and the narrow pairs.
@pytest.mark.parametrize("kind, k", [*(("wide", k) for k in (2, 3)),
                                     *(("narrow", seed) for seed in range(12))])
def test_wasserstein_oracle_agrees_above_16_points(tmp_path, capsys, kind, k):
    mu, nu = wide_random_pairs(k + 1)[k] if kind == "wide" else narrow_pair(k)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(mu, a)
    write_distribution_csv(nu, b)
    code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), "--oracle")
    assert (code, out) == (0, f"{w2_quantile(mu, nu):.12g}\n"), err
    assert err.startswith("oracle agrees: ")


def test_wasserstein_oracle_takes_tiny_values_beside_far_out_ones(tmp_path, capsys):
    # Scaling ±1e300 down rounds 1e-300 and 2e-300 to one value.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution([-1e300, 1e-300, 2e-300], [0.5, 0.25, 0.25]), a)
    write_distribution_csv(Distribution([1e300], [1.0]), b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "wasserstein", str(a), str(b), "--oracle") == (
            0, "1.58113883008e+300\n", "oracle agrees: 1.58113883008e+300\n")


@pytest.mark.parametrize("reach", [0.5, 1.0, 1e8, 1e-200])
def test_wasserstein_oracle_mismatch_still_exits_3(tmp_path, capsys, monkeypatch, reach):
    import qmu.cli

    exact = qmu.cli.w2_lp_oracle
    monkeypatch.setattr(qmu.cli, "w2_lp_oracle",
                        lambda mu, nu: exact(mu, nu) + 1e-6 * max(1.0, reach))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution([-reach, 0.5 * reach], [0.5, 0.5]), a)
    write_distribution_csv(Distribution([reach], [1.0]), b)
    code, out, err = run_cli(capsys, "wasserstein", str(a), str(b), "--oracle")
    assert code == 3
    assert err.startswith("oracle mismatch: ")


def test_wasserstein_on_the_float_range_ends_writes_no_warning(tmp_path):
    # The gap between -1e308 and 1e308 overflows: no check may subtract them.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution([-1e308, 1e308], [0.5, 0.5]), a)
    write_distribution_csv(Distribution([0.0], [1.0]), b)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qmu", "wasserstein", str(a), str(b)],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1e+308\n", "")


@pytest.mark.parametrize("mu, nu, expected", [
    (([-1e-200, 1e-200], [0.5, 0.5]), ([0.0], [1.0]), "1e-200"),
    # 5e-324, the least subnormal, in the CLI's 12-significant-digit format
    (([5e-324], [1.0]), ([1e-323], [1.0]), "4.94065645841e-324"),
])
def test_wasserstein_tiny_supports(tmp_path, capsys, mu, nu, expected):
    # Squared differences would underflow to 0; the kernel rescales by a power of two.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_distribution_csv(Distribution(*mu), a)
    write_distribution_csv(Distribution(*nu), b)
    coupling_path = tmp_path / "coupling.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "wasserstein", str(a), str(b), "--oracle",
                       "--coupling", str(coupling_path)) == (
            0, f"{expected}\n", f"oracle agrees: {expected}\n")
    assert coupling_path.exists()


def test_wasserstein_probability_sum_message_is_a_plain_float(tmp_path, capsys):
    bad = tmp_path / "s.csv"
    bad.write_text("0,0.5\n1,0.6\n")
    good = tmp_path / "good.csv"
    write_distribution_csv(Distribution([0.0], [1.0]), good)
    assert run_cli(capsys, "wasserstein", str(bad), str(good)) == (
        2, "", f"malformed distribution input: {bad}: probabilities sum to 1.1, expected 1\n")


def test_sweep_bound_relation(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "qubit-error-bound", str(csv_path), "--points", "5"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["min_slack"] >= -1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "theta,lhs,rhs,slack"
    assert len(lines) == 6


def test_sweep_naive_has_negative_slack(tmp_path, capsys):
    csv_path = tmp_path / "naive.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "naive-product", str(csv_path), "--points", "9"
    )
    assert code == 0
    assert json.loads(out)["negative_slack_rows"] > 0


SWEEP_HEADERS = {
    "qubit-error-bound": "theta,lhs,rhs,slack",
    "naive-product": "theta,lhs,rhs,slack",
    "branciard": "c_x,c_y,c_z,d_x,d_y,d_z,lhs,rhs,slack",
}


@pytest.mark.parametrize("relation", SWEEPS)
def test_every_sweep_writes_one_row_per_point(tmp_path, capsys, relation):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", relation, str(csv_path), "--points", "7")
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADERS[relation]
    slacks = [float(row["slack"]) for row in csv.DictReader(lines)]
    assert len(slacks) == 7 and all(map(math.isfinite, slacks))
    summary = json.loads(out)
    assert (summary["relation"], summary["points"]) == (relation, 7)
    assert (summary["min_slack"], summary["max_slack"]) == (min(slacks), max(slacks))


@pytest.mark.parametrize("command, table", [("check", CHECKS), ("sweep", SWEEPS)])
def test_unknown_relation_message_lists_every_table_key(tmp_path, capsys, command, table):
    argv = [command, "nope"] + ([str(tmp_path / "x.csv")] if command == "sweep" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert all(repr(name) in err for name in table)


def test_the_readme_names_every_check_and_sweep():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [f"{command} {name}" for command, table in (("check", CHECKS), ("sweep", SWEEPS))
               for name in table if f"`{command} {name}`" not in readme]
    assert not missing


def test_sweep_unknown_relation_and_unwritable(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "sweep", "nope", str(tmp_path / "x.csv"))
    assert code == 2
    code, _, _ = run_cli(
        capsys, "sweep", "naive-product", str(tmp_path / "no-dir" / "x.csv"),
        "--points", "3",
    )
    assert code == 4


def test_check_commands(capsys):
    code, _, _ = run_cli(capsys, "check", "not-a-relation")
    assert code == 2


@pytest.mark.parametrize("relation", CHECKS)
def test_every_check_relation_passes(capsys, relation):
    code, out, _ = run_cli(capsys, "--budget", "50", "check", relation)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_no_local_optimiser_is_imported(tmp_path):
    rng = np.random.default_rng(9)
    pair = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in pair:
        write_distribution_csv(
            Distribution(np.sort(rng.uniform(-1.0, 1.0, 64)), rng.dirichlet(np.ones(64))), path)
    script = f"""
import sys
from qmu.cli import main

def assert_none_imported(after):
    lazy = [m for m in sys.modules if m == "mpmath" or m.split(".")[0] == "scipy"]
    assert not lazy, (after, lazy)

assert_none_imported("import")
runs = [["scenario", "run", "--all"], ["check", "qubit-error-bound"]]
runs += [["sweep", r, {str(tmp_path / "sweep.csv")!r}, "--points", "5"]
         for r in ("qubit-error-bound", "naive-product", "branciard")]
runs += [["wasserstein", *{[str(path) for path in pair]!r}, "--oracle"]]
for argv in runs:
    assert main([*argv, "--out", {str(tmp_path / "out.json")!r}]) == 0, argv
    assert_none_imported(argv)
# A d=6 sharp target against a 20-outcome POVM has C(24, 5) = 42,504
# staircase duals, above the enumeration limit, and d <= 8.
import numpy as np
from qmu import opalg
from qmu.errmetrics import error_report
from qmu.observables import Observable
rng = np.random.default_rng(3)
a = opalg.random_hermitian(6, rng)
grams = [g @ g.conj().T for g in rng.standard_normal((20, 6, 6)) + 1j * rng.standard_normal((20, 6, 6))]
w, v = np.linalg.eigh(sum(grams))
inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
effects = np.stack([inv_sqrt @ g @ inv_sqrt for g in grams])
c = Observable(np.sort(rng.uniform(-2.0, 2.0, 20)), 0.5 * (effects + effects.conj().transpose(0, 2, 1)))
assert not error_report(a, c, np.eye(6) / 6).w2_worst_exact
assert_none_imported("error_report")
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=_src_env(), timeout=120)
    assert result.returncode == 0, result.stderr


def test_no_command_needs_mpmath(tmp_path):
    script = f"""
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from qmu.cli import main
sys.exit(main(["scenario", "run", "--all", "--out", {str(tmp_path / "out.json")!r}]))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=_src_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out.json").read_text())
    triple = next(s for s in report["scenarios"] if s["name"] == "qubit-triple-unbiased-zero")
    assert triple["values"]["eps_no_highprec"] == 0.0


def test_von_neumann_scenario_reads_the_shifts_not_the_dense_scheme(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the scenario built the dense von Neumann scheme")

    monkeypatch.setattr(VonNeumannModel, "to_scheme", refuse)
    code, out, err = run_cli(capsys, "scenario", "run", "von-neumann-position")
    assert code == 0, err
    payload = json.loads(out)
    assert [s["passed"] for s in payload["scenarios"]] == [True]


def _alias_late(monkeypatch):
    """Make the runners' own aliasing check fail: no accepted input is known to."""
    def aliased(grid, psi):
        raise GridAliasingError("wavefunction mass 1.000e-07 within 1e-08 of the grid boundary")

    monkeypatch.setattr("qmu.grid.check_aliasing", aliased)


def test_check_numerical_failure_exits_3(capsys, monkeypatch):
    _alias_late(monkeypatch)
    code, out, err = run_cli(capsys, "check", "phase-space")
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "phase-space" in err


def test_scenario_run_all_late_failure_prints_one_line(capsys, monkeypatch):
    # The first husimi-* scenario fails after earlier scenarios have run:
    # their tables must not come before the failure line.
    _alias_late(monkeypatch)
    code, out, err = run_cli(capsys, "scenario", "run", "--all")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure in husimi-")
    assert len(err.strip().splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [("check", "phase-space"), ("scenario", "run", "husimi-saturation")],
    ids=["check-phase-space", "scenario-husimi-saturation"],
)
def test_non_finite_values_are_strict_json(capsys, monkeypatch, argv):
    # No valid input is known to give a non-finite figure, so one is forced.
    monkeypatch.setattr(Distribution, "variance", property(lambda self: float("nan")))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["passed"] is False
    assert '"nan"' in out


def test_encode_float_non_finite():
    assert encode_float(float("nan")) == "nan"
    assert encode_float(float("inf")) == "inf"
    assert encode_float(-float("inf")) == "-inf"
    assert encode_float(-2.5) == -2.5
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})


@pytest.mark.parametrize("relation, budget", [("ozawa", "0"), ("unbiased", "-5")])
def test_check_rejects_nonpositive_budget(capsys, relation, budget):
    code, out, err = run_cli(capsys, "check", relation, "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "qubit-error-bound", "{csv}", "--points", "0"),
        ("sweep", "qubit-error-bound", "{csv}", "--points", "-3"),
        ("--grid-n", "1000", "check", "phase-space"),
        ("--grid-n", "0", "scenario", "run", "husimi-saturation"),
        ("--grid-L", "0", "check", "phase-space"),
        ("--grid-L", "1e300", "check", "phase-space"),
        ("--grid-n", "8", "check", "phase-space"),
        ("--grid-L", "1", "check", "phase-space"),
        ("--grid-L", "6e153", "check", "phase-space"),
        ("--grid-L", "1e-300", "check", "phase-space"),
        ("--grid-n", "8", "scenario", "run", "husimi-saturation"),
        ("scenario", "run", "husimi-saturation", "--set", "L=1e300"),
        ("scenario", "run", "husimi-saturation", "--set", "n=1000"),
        ("scenario", "run", "husimi-squeezed", "--set", "n=abc"),
        ("scenario", "run", "husimi-displaced", "--set", "L=-1"),
        ("scenario", "run", "position-flip", "--set", "n=1000"),
        ("scenario", "run", "position-flip", "--set", "L=-1"),
        ("scenario", "run", "oscillator-shift-zero-error", "--set", "n=abc"),
        ("scenario", "run", "double-zero-approximators", "--set", "L=-1"),
        ("scenario", "run", "von-neumann-position", "--set", "n_obj=1000"),
        ("scenario", "run", "position-flip", "--set", "n=null"),
        ("scenario", "run", "position-flip", "--set", "n=256"),
        ("scenario", "run", "von-neumann-position", "--set", "n_obj=64", "--set", "n_probe=128"),
        ("--seed", "-1", "check", "ozawa"),
        ("--seed", "-1", "sweep", "branciard", "{csv}"),
        ("--seed", "-1", "scenario", "run", "qubit-approx-smearing"),
        ("--hbar-scale", "nan", "scenario", "run", "husimi-saturation"),
        ("--hbar-scale", "0", "check", "phase-space"),
        ("scenario", "run", "covariant-qubit-pair", "--set", "angle=null"),
        ("scenario", "run", "covariant-qubit-pair", "--set", "angle=nan"),
        ("scenario", "run", "covariant-qubit-pair", "--set", "angle=abc"),
        ("scenario", "run", "qubit-approx-smearing", "--set", "gamma=null"),
        ("scenario", "run", "oscillator-shift-zero-error", "--set", "alpha=[1]"),
        ("scenario", "run", "identity-scheme", "--set", "sigma_bloch=[1,2]"),
        ("scenario", "run", "von-neumann-position", "--set", "lam=-1"),
        ("scenario", "run", "von-neumann-position", "--set", "lam=0.3"),
        ("scenario", "run", "von-neumann-position", "--set", "lam=1e-320"),
        ("scenario", "run", "von-neumann-position", "--set", "lam=2"),
        ("scenario", "run", "von-neumann-position", "--set", "L_obj=16", "--set", "n_obj=64",
         "--set", "n_probe=64"),
        ("scenario", "run", "--all", "--set", "rho_bloch=[1,0,0]"),
        ("scenario", "run", "von-neumann-position", "--set", "L_probe=5e-324"),
    ],
    ids=["points-zero", "points-negative", "grid-n-not-power-of-two", "grid-n-zero",
         "grid-L-zero", "grid-L-squared-overflows", "grid-n-coarser-than-husimi-width",
         "grid-L-narrower-than-husimi-width", "grid-L-spacing-above-husimi-width",
         "grid-L-far-narrower-than-husimi-width", "grid-n-coarser-than-husimi-width-scenario",
         "set-L-squared-overflows", "set-n-husimi",
         "set-n-not-a-number", "set-L-husimi",
         "set-n-position-flip", "set-L-position-flip", "set-n-oscillator", "set-L-oscillator",
         "set-n_obj-von-neumann", "set-n-null-position-flip", "set-n-dense-position-flip",
         "set-dense-von-neumann", "seed-negative-check", "seed-negative-sweep",
         "seed-negative-scenario", "hbar-scale-nan", "hbar-scale-zero", "set-angle-null",
         "set-angle-nan", "set-angle-not-a-number", "set-gamma-null", "set-alpha-list",
         "set-sigma_bloch-short", "set-lam-negative", "set-lam-off-lattice",
         "set-lam-vanishing", "set-lam-wraps-probe-grid", "set-L_obj-wraps-probe-grid",
         "set-key-unknown-to-a-scenario", "set-L_probe-spacing-rounds-to-zero"],
)
def test_malformed_numeric_flags_exit_2(tmp_path, capsys, argv):
    csv_path = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *(arg.format(csv=csv_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert not csv_path.exists()


@pytest.mark.parametrize("name, override", [
    ("qubit-approx-smearing", "gamma=1.5"),
    ("qubit-approx-smearing", "gamma=-1e300"),
    ("qubit-approx-smearing", "rho_bloch=[0,0,0]"),
    ("trivial-approximator", "rho_bloch=[0,-0.0,0]"),
    ("identity-scheme", "sigma_bloch=[0,0,0]"),
    ("swap-scheme", "rho_bloch=[0,0,0]"),
    ("covariant-qubit-pair", "rho_bloch=[0,0,0]"),
    ("husimi-saturation", "width=0"),
    ("husimi-squeezed", "width=-0.0"),
    ("husimi-displaced", "width=-1"),
    ("von-neumann-position", "width=-0.0"),
    ("von-neumann-position", "probe_width=0"),
    ("husimi-squeezed", "width=1e-320"),
    ("von-neumann-position", "width=1e-170"),
    ("von-neumann-position", "center=1e300"),
    ("husimi-displaced", "center=1e300"),
    ("husimi-displaced", "n=16"),
    ("husimi-saturation", "width=1e300"),
    ("position-flip", "L=1e-320"),
    ("position-flip", "L=100"),
    ("oscillator-shift-zero-error", "L=1e-300"),
    ("double-zero-approximators", "L=2"),
    ("oscillator-shift-zero-error", "alpha=-1.7e308"),
    ("double-zero-approximators", "alpha=1.7e308"),
    ("double-zero-approximators", "beta=1.7e308"),
    ("double-zero-approximators", "beta=-1e100"),
    ("von-neumann-position", "center=7"),
    ("von-neumann-position", "width=2"),
    ("husimi-squeezed", "L=7"),
    ("husimi-squeezed", "center=7"),
    ("husimi-displaced", "width=3"),
])
def test_parameters_that_name_no_model_exit_2_before_any_work(capsys, monkeypatch, name,
                                                              override):
    def refuse(params, config):
        raise AssertionError("a runner ran on malformed parameters")

    for key, scenario in SCENARIOS.items():
        monkeypatch.setitem(SCENARIOS, key, dataclasses.replace(scenario, run=refuse))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "scenario", "run", name, "--set", override)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"--set {override.split('=')[0]}: ")
    # The library refuses the same override with the same text.
    key, raw = override.split("=", 1)
    with pytest.raises(ValueError) as refused:
        run_scenario(name, overrides={key: json.loads(raw)})
    assert f"--set {refused.value}" == err.rstrip("\n")


@pytest.mark.parametrize("argv, name, config", [
    (("--grid-n", "8", "check", "phase-space"), "husimi-saturation", RunConfig(grid_n=8)),
    (("--grid-L", "1", "check", "phase-space"), "husimi-saturation", RunConfig(grid_l=1.0)),
    (("--grid-L", "6e153", "check", "phase-space"), "husimi-saturation",
     RunConfig(grid_l=6e153)),
    (("--grid-L", "6.5", "check", "phase-space"), "husimi-squeezed", RunConfig(grid_l=6.5)),
    (("--grid-n", "8", "scenario", "run", "husimi-saturation"), "husimi-saturation",
     RunConfig(grid_n=8)),
    (("--grid-n", "8", "scenario", "run", "--all"), "husimi-displaced", RunConfig(grid_n=8)),
])
def test_a_configured_grid_that_resolves_no_state_exits_2_before_any_work(
        capsys, monkeypatch, argv, name, config):
    def refuse(params, config):
        raise AssertionError("a runner ran on a malformed grid")

    for key, scenario in SCENARIOS.items():
        monkeypatch.setitem(SCENARIOS, key, dataclasses.replace(scenario, run=refuse))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    prefix = f"{name} on the configured grid: "
    assert len(err.splitlines()) == 1 and err.startswith(prefix)
    # The library refuses the same grid with the same text.
    with pytest.raises(ValueError) as refused:
        run_scenario(name, config)
    assert prefix + str(refused.value) == err.rstrip("\n")


def test_float_overflow_prints_one_readable_line(capsys, monkeypatch):
    # alpha = 1e300 overflows in the runner; its limits refuse it, so they are lifted here.
    name = "double-zero-approximators"
    monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(SCENARIOS[name], limits=None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "scenario", "run", name, "--set", "alpha=1e300")
    assert (code, out) == (3, "")
    assert err == ("numerical failure in double-zero-approximators: "
                   "float overflow (Numerical result out of range)\n")


@pytest.mark.parametrize("target, argv", [
    ("ozawa_branciard_suite", ("check", "ozawa")),
    ("feasible_models", ("sweep", "branciard", "{csv}")),
])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, target, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(f"qmu.cli.{target}", exhausted)
    csv_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *(arg.format(csv=csv_path) for arg in argv))
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert not csv_path.exists()


@pytest.mark.parametrize("relation", ["unbiased", "eps-forms"])
def test_check_budget_is_the_draw_count(capsys, relation):
    code, out, _ = run_cli(capsys, "check", relation, "--budget", "2500")
    assert code == 0
    assert json.loads(out)["summary"]["draws"] == 2500


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli():
    result = subprocess.run([sys.executable, "-m", "qmu", "scenario", "list"],
                            capture_output=True, text=True, env=_src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["schema"] == "qmu/1"


def _env_without_blas_pins() -> dict:
    return {k: v for k, v in _src_env().items() if k not in BLAS_THREAD_VARIABLES}


def test_cli_bytes_equal_the_one_blas_thread_bytes(tmp_path):
    # oscillator-shift-zero-error's w2_state moves with the BLAS thread count
    outputs = []
    for pin in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        path = tmp_path / f"report{len(outputs)}.json"
        result = subprocess.run(
            [sys.executable, "-m", "qmu", "--seed", "0", "--out", str(path),
             "scenario", "run", "oscillator-shift-zero-error"],
            capture_output=True, text=True, env={**_env_without_blas_pins(), **pin}, timeout=60)
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# Imports qmu and reports the pool-size variables numpy was imported with
# (None if it was not), which variables qmu wrote, and whether the environment
# is as before.  The import stops at numpy or, past the pin block, at qmu's
# first module.  With "numpy-first", a stand-in numpy is already loaded.
NUMPY_IMPORT_SPY = """
import json, os, sys
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

class Seen(BaseException):
    pass

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            raise Seen({k: os.environ.get(k) for k in names})
        if name == "qmu.distributions":
            raise Seen(None)

writes, setitem = [], type(os.environ).__setitem__
def record(self, key, value):
    writes.append(key)
    setitem(self, key, value)
type(os.environ).__setitem__ = record

if sys.argv[1:] == ["numpy-first"]:
    sys.modules["numpy"] = type(sys)("numpy")
before = dict(os.environ)
sys.meta_path.insert(0, Spy())
try:
    import qmu
except Seen as seen:
    print(json.dumps({"seen": seen.args[0], "writes": writes,
                      "unchanged": dict(os.environ) == before}))
"""
ONE_THREAD = dict.fromkeys(BLAS_THREAD_VARIABLES, "1")


@pytest.mark.parametrize("argv, pin, seen, writes", [
    ((), {}, ONE_THREAD, list(BLAS_THREAD_VARIABLES)),
    ((), {"OPENBLAS_NUM_THREADS": "3"}, {**ONE_THREAD, "OPENBLAS_NUM_THREADS": "3"},
     ["OMP_NUM_THREADS", "MKL_NUM_THREADS"]),
    (("numpy-first",), {}, None, []),
], ids=["unset", "user-set", "numpy-first"])
def test_importing_qmu_loads_numpy_with_one_blas_thread(argv, pin, seen, writes):
    result = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_SPY, *argv], capture_output=True,
                            text=True, env={**_env_without_blas_pins(), **pin}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"seen": seen, "writes": writes, "unchanged": True}


def test_byte_identical_reruns(tmp_path, capsys):
    outputs = []
    for run in range(2):
        path = tmp_path / f"report{run}.json"
        code, _, _ = run_cli(
            capsys, "--seed", "0", "--out", str(path),
            "scenario", "run", "covariant-qubit-pair",
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    out_file, fresh_out_file = tmp_path / "report.json", tmp_path / "fresh.json"
    calls = [
        ["--seed", "3", "check", "ozawa", "--budget", "20"],
        ["check", "ozawa", "--budget", "20"],
        ["check", "unbiased", "--budget", "20", "--out", str(out_file)],
        ["check", "unbiased", "--budget", "20"],
        ["scenario", "run", "identity-scheme", "--set", "sigma_bloch=[0,0,1]"],
        ["scenario", "run", "identity-scheme"],
        ["check"],
        ["check", "eps-forms", "--budget", "20"],
    ]
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, capsys.readouterr().out))
    assert [code for code, _ in results] == [0, 0, 0, 0, 0, 0, 2, 0]
    seeds = [json.loads(results[k][1])["config"]["seed"] for k in (0, 1)]
    assert seeds == [3, 0]
    assert results[2][1] == ""
    assert results[3][1] == out_file.read_text()
    parameters = [json.loads(results[k][1])["scenarios"][0]["parameters"] for k in (4, 5)]
    assert parameters[0]["sigma_bloch"] == [0, 0, 1]
    assert parameters[1]["sigma_bloch"] == [0.0, 1.0, 0.0]  # the default
    for argv, (code, out) in zip(calls, results):
        argv = [fresh_out_file if arg == str(out_file) else arg for arg in argv]
        fresh = subprocess.run([sys.executable, "-m", "qmu", *argv], capture_output=True,
                               text=True, env=_src_env(), timeout=60)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
    assert fresh_out_file.read_bytes() == out_file.read_bytes()


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    constructed = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    counts = []
    for _ in range(2):
        before = constructed[0]
        assert main(["scenario", "list"]) == 0
        counts.append(constructed[0] - before)
    capsys.readouterr()
    assert counts[0] > 0
    assert counts[1] == 0


def test_serialization_roundtrips():
    from qmu import opalg
    from qmu.grid import GridSystem
    from qmu.observables import BlochObservable, spectral_measure
    from qmu.schemes import MeasurementScheme
    from qmu.serialize import (
        bloch_observable_from_json,
        bloch_observable_to_json,
        grid_config_from_json,
        grid_config_to_json,
    )

    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(decode_matrix(encode_matrix(m)), m, atol=0)
    obs = spectral_measure(opalg.random_hermitian(3, rng))
    back = observable_from_json(observable_to_json(obs), sharp=True)
    np.testing.assert_allclose(back.outcomes, obs.outcomes)
    np.testing.assert_allclose(back.effects, obs.effects, atol=1e-15)
    scheme = MeasurementScheme(
        opalg.random_density(2, rng), opalg.haar_unitary(6, rng),
        spectral_measure(opalg.random_hermitian(2, rng)), [0.5, -1.5],
    )
    back = scheme_from_json(json.loads(json.dumps(scheme_to_json(scheme))))
    np.testing.assert_array_equal(back.probe_state, scheme.probe_state)
    np.testing.assert_array_equal(back.coupling, scheme.coupling)
    np.testing.assert_array_equal(back.pointer.effects, scheme.pointer.effects)
    np.testing.assert_array_equal(back.pointer_values, scheme.pointer_values)
    bloch = BlochObservable(0.9, np.array([0.2, -0.1, 0.3]))
    back = bloch_observable_from_json(bloch_observable_to_json(bloch))
    assert back.c0 == bloch.c0
    np.testing.assert_array_equal(back.c, bloch.c)
    grid = grid_config_from_json(grid_config_to_json(GridSystem(64, 9.0)))
    assert grid.n == 64 and grid.half_width == 9.0


def test_decoders_reject_malformed_models():
    from qmu import opalg
    from qmu.observables import spectral_measure
    from qmu.schemes import swap_scheme

    sigma = opalg.random_density(2, np.random.default_rng(1))
    good = scheme_to_json(swap_scheme(spectral_measure(opalg.SIGMA_Z), sigma))
    with pytest.raises(ValueError, match="not unitary"):
        scheme_from_json({**good, "U": encode_matrix(1.01 * decode_matrix(good["U"]))})
    with pytest.raises(ValueError, match="trace"):
        scheme_from_json({**good, "sigma": encode_matrix(1.1 * decode_matrix(good["sigma"]))})
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]
    with pytest.raises(ValueError, match="sum to identity"):
        observable_from_json({"outcomes": [0.0, 1.0],
                              "effects": [encode_matrix(e) for e in effects]}, sharp=True)
    # halved projections onto two bases: effects that sum to 1 and do not commute
    plus, minus = opalg.projector([1.0, 1.0]), opalg.projector([1.0, -1.0])
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), plus, minus]
    data = {"outcomes": [0.0, 1.0, 2.0, 3.0],
            "effects": [encode_matrix(0.5 * e) for e in effects]}
    observable_from_json(data)  # a valid POVM, but not a sharp one
    with pytest.raises(ValueError, match="not a projection"):
        observable_from_json(data, sharp=True)


def test_distribution_csv_roundtrip(tmp_path):
    dist = Distribution([-1.5, 0.0, 2.25], [0.2, 0.3, 0.5])
    path = tmp_path / "d.csv"
    write_distribution_csv(dist, path)
    back = read_distribution_csv(path)
    np.testing.assert_array_equal(back.support, dist.support)
    np.testing.assert_array_equal(back.probs, dist.probs)


# Each case is read by the csv-module reference and by read_distribution_csv:
# an accepted file must give bitwise the same Distribution, a rejected one a
# ValueError that names the file (exit 2 from the CLI).
CSV_EDGE_CASES = {
    "header-mid-file": b"0.5,0.25\nvalue,probability\n-1,0.75\n",
    "x-header-any-case": b"X,P\n1,1\nx\n",
    "quoted-header": b'"value","probability"\n1,1\n',
    "padded-header": b" Value \t,probability\n1,1\n",
    "comment-rows": b"# measured\n  # indented\n1,0.5\n#,x\n2,0.5\n",
    "quoted-comment": b'"# note, with a comma",1\n1,1\n',
    "blank-lines": b"\n1,0.5\n\n\n2,0.5\n\n",
    "quoted-fields": b'"1.5","0.25"\n"-2",0.75\n',
    "quoted-field-with-tail": b'"1.5"5,1\n',
    "escaped-quote": b'"1""5",1\n',
    "escaped-quote-left-open": b'"#q"",1\n3.25,1.0\n"#q",1\n',
    "quote-inside-field": b'1"5,1\n',
    "quoted-comma": b'"1,5",1\n',
    "quote-after-space": b' "1.5",1\n',
    "extra-columns": b"1,0.5,a,b\n2,0.5\n",
    "extra-column-with-quotes": b'1,0.5,a"b\n2,0.5,"c,d"\n',
    "whitespace": b"  1.5 ,\t0.5\t\n2\xc2\xa0,\x0c0.5 \n",
    "unicode-spaces": "　1, 0.5 \n2,0.5\x85\n".encode(),
    "crlf": b"1,0.5\r\n2,0.5\r\n",
    "cr": b"1,0.5\r2,0.5\r",
    "no-final-newline": b"1,1",
    "signed-zero": b"-0.0,1\n",
    "subnormal-and-large": b"5e-324,0.5\n1e16,0.25\n-1.2345678901234567e150,0.25\n",
    "long-mantissas": b"0.1000000000000000055511151231257827,0.3\n2.4703282292062328e-324,0.7\n",
    "underflow": b"1e-400,1\n",
    "unsorted": b"3,0.5\n-1,0.25\n.5e1,0.25\n",
    "signs-and-exponents": b"+1E+2,0.5\n-.5e-1,0.5\n",
    "inf-value": b"inf,1\n",
    "infinity-value": b"1,0.5\n-Infinity,0.5\n",
    "nan-probability": b"0,nan\n",
    "overflow": b"1e400,1\n",
    "one-column": b"1,0.5\n2\n",
    "one-column-only": b"0.5\n",
    "whitespace-only-line": b"1,0.5\n   \n2,0.5\n",
    "empty-fields": b"1,1\n,\n",
    "empty-file": b"",
    "headers-and-comments-only": b"value,probability\n# none\n\n",
    "not-a-number": b"1,0.5\nabc,0.5\n",
    "hex-float": b"0x1p3,1\n",
    "fortran-exponent": b"1d3,1\n",
    "digits-with-space": b"1 5,1\n",
    "duplicate-values": b"1,0.5\n1,0.5\n",
    "signed-zero-duplicates": b"0,0.5\n-0,0.5\n",
    "bad-sum": b"1,0.6\n2,0.6\n",
    "negative-probability": b"1,-0.5\n2,1.5\n",
    "nul-in-field": b"1,0.5\x00\n2,0.5\n",
    "separator-control": b"1\x1c,1\n",
    "separator-control-in-comment-and-extra-column": b"#\x1f\n1,1,\x1e\n",
    "not-utf-8": b"\xff1,1\n",
    "two-byte-order-marks": b"\xef\xbb\xbf\xef\xbb\xbf1,1\n",
}
# U+001C-U+001F: float() rejects them around a number, in the value or the
# probability; in a # line or a third column the row is read as before.
CSV_EDGE_CASES.update({
    f"control-{where}-U+{ord(c):04X}-{ending}": text.format(c=c, end=end).encode()
    for c in "\x1c\x1d\x1e\x1f"
    for ending, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r"))
    for where, text in (
        ("in-value", "0.5,0.5{end}1{c},0.5{end}"),
        ("in-probability", "0.5,0.5{end}1,{c}0.5{end}"),
        ("in-comment-and-extra-column", "#{c}{end}1,1,{c}{end}"),
    )
})


def _read_outcome(reader, path):
    try:
        dist = reader(path)
    except ValueError as exc:
        return None, str(exc)
    return dist.support.tobytes() + dist.probs.tobytes(), None


@pytest.mark.parametrize("name", CSV_EDGE_CASES)
def test_distribution_csv_edge_cases_match_the_csv_module_reader(tmp_path, capsys, name):
    path = tmp_path / "edge.csv"
    path.write_bytes(CSV_EDGE_CASES[name])
    expected, _ = _read_outcome(reference_read_distribution_csv, path)
    got, message = _read_outcome(read_distribution_csv, path)
    assert got == expected
    good = tmp_path / "good.csv"
    write_distribution_csv(Distribution([0.0, 1.0], [0.5, 0.5]), good)
    code, out, err = run_cli(capsys, "wasserstein", str(good), str(path))
    if expected is None:
        assert str(path) in message
        assert code == 2 and out == ""
        assert err == f"malformed distribution input: {message}\n"
    else:
        assert code == 0 and err == ""


@pytest.mark.parametrize("data", [
    b"1_0,1\n",                           # digit-group underscore
    "١,1\n".encode(),                # ARABIC-INDIC DIGIT ONE
    "１,1\n".encode(),                # FULLWIDTH DIGIT ONE
    b'1,"1\n"\n',                         # a quoted field over a line break
    b'1,1\n"# comment\nspanning lines"\n',
    b'1,1,"a""\n#c\n',                     # "" is a quote, not the close
])
def test_distribution_csv_narrowing(tmp_path, capsys, data):
    # float() and the csv module took these; the reader rejects them.
    path = tmp_path / "narrow.csv"
    path.write_bytes(data)
    reference_read_distribution_csv(path)
    with pytest.raises(ValueError, match="line"):
        read_distribution_csv(path)
    code, out, err = run_cli(capsys, "wasserstein", str(path), str(path))
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_wasserstein_reads_a_byte_order_mark_and_crlf(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"value,probability\n-1.5,0.25\n2.0,0.75\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbfvalue,probability\r\n-1.5,0.25\r\n2.0,0.75\r\n")
    a, b = read_distribution_csv(plain), read_distribution_csv(marked)
    assert a.support.tobytes() == b.support.tobytes()
    assert a.probs.tobytes() == b.probs.tobytes()
    other = tmp_path / "other.csv"
    write_distribution_csv(Distribution([0.0, 1.0], [0.5, 0.5]), other)
    _, expected, _ = run_cli(capsys, "wasserstein", str(plain), str(other))
    code, out, err = run_cli(capsys, "wasserstein", str(marked), str(other))
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("bad_row, reason", [
    ("abc,0.25", "could not convert string 'abc'"),
    ("0.5", "1 columns"),
])
def test_malformed_second_input_names_the_file_and_line(tmp_path, capsys, bad_row, reason):
    good = tmp_path / "good.csv"
    write_distribution_csv(Distribution([0.0, 1.0], [0.5, 0.5]), good)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# comment\nvalue,probability\n\n-1,0.5\n{bad_row}\n2,0.25\n")
    code, out, err = run_cli(capsys, "wasserstein", str(good), str(bad))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"malformed distribution input: {bad}: line 5: ")
    assert reason in err


@st.composite
def couplings(draw):
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e16, -1e16, 1.7976931348623157e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    weights = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.0]),
        st.floats(min_value=0.0, max_value=1e300),
    )
    m, n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 20))
    return Coupling(
        draw(st.lists(values, min_size=m, max_size=m)),
        draw(st.lists(values, min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)),
        draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
        draw(st.lists(weights, min_size=k, max_size=k)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(couplings())
def test_coupling_csv_bytes_equal_the_csv_writer(tmp_path_factory, coupling):
    folder = tmp_path_factory.getbasetemp()
    write_coupling_csv(coupling, folder / "new.csv")
    reference_write_coupling_csv(coupling, folder / "reference.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def test_staircase_coupling_csv_bytes_equal_the_csv_writer(tmp_path):
    rng = np.random.default_rng(21)
    for m, n in ((2048, 1536), (1, 5), (7, 7)):
        probs = rng.dirichlet(np.ones(m))
        if m > 1:
            probs[rng.integers(m)] = 0.0  # a zero-probability atom
        mu = Distribution(np.sort(rng.normal(0.0, 1e17, m)), probs / probs.sum())
        nu = Distribution(np.sort(rng.normal(0.0, 1e-3, n)), rng.dirichlet(np.ones(n)))
        coupling = quantile_coupling(mu, nu)
        write_coupling_csv(coupling, tmp_path / "new.csv")
        reference_write_coupling_csv(coupling, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
