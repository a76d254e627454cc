"""Command-line front end: scenario runs, relation checks, sweeps, transport.

Exit codes: 0 all-pass, 2 unknown name or malformed input, 3 numerical
failure or expectation mismatch, 4 unwritable output path.  All reports are
JSON (stdout or --out) with a top-level schema key; human-readable tables go
to stderr so piped output stays machine-clean.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from typing import Callable

import numpy as np

from .distributions import LP_MAX, support_reach, w2_lp_oracle, w2_quantile_with_coupling
from .errmetrics import FORM_TOL
from .grid import grid_size_error, half_width_error
from .observables import spectral_measure
from .opalg import SIGMA_X, SIGMA_Z, bloch_state
from .relations import (
    SLACK_TOL,
    branciard_joint,
    check_naive_heisenberg,
    qubit_error_bound,
)
from .scenarios import (
    EX,
    EY,
    EZ,
    RunConfig,
    SCENARIOS,
    ScenarioOutcome,
    epsno_sum_suite,
    eps_form_equivalence_suite,
    feasible_models,
    naive_falsification_cases,
    override_error,
    ozawa_branciard_suite,
    run_scenario,
    scenario_names,
    unbiased_model_suite,
)
from .schemes import swap_scheme
from .serialize import (
    SCHEMA,
    dumps_json,
    encode_float,
    read_distribution_csv,
    verdict_to_json,
    write_coupling_csv,
)

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_NUMERIC = 3
EXIT_UNWRITABLE = 4

# wasserstein --oracle: the quantile and LP values may differ by this much
# times max(1, reach), reach the largest |support value| of the two inputs.
ORACLE_TOL = 1e-9


def _config_fields() -> list[tuple[dataclasses.Field, str]]:
    """Each RunConfig field and its key: the parsed flag's attribute and the config key."""
    return [(f, f.metadata.get("key", f.name)) for f in dataclasses.fields(RunConfig)]


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, key) for f, key in _config_fields()})


def _config_to_json(config: RunConfig) -> dict:
    return {key: getattr(config, f.name) for f, key in _config_fields()}


def _emit(payload: dict, args, passed: bool = True) -> int:
    """Write the JSON report; exit 0 when it passed, 3 when not, 4 when it cannot be written."""
    text = dumps_json(payload)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_NUMERIC


def _outcome_to_json(outcome: ScenarioOutcome) -> dict:
    out = {
        "name": outcome.name,
        "parameters": _encode_tree(outcome.parameters),
        "values": {k: encode_float(float(v)) for k, v in outcome.values.items()},
        "checks": _encode_tree(outcome.checks),
        "verdicts": [verdict_to_json(v) for v in outcome.verdicts],
        "expected_violations": sorted(outcome.expect_violation),
        "passed": bool(outcome.passed),
    }
    if outcome.report is not None:
        out["report"] = outcome.report
    return out


def _print_outcome_table(outcome: ScenarioOutcome):
    lines = [f"scenario {outcome.name}: {'PASS' if outcome.passed else 'FAIL'}"]
    for check in outcome.checks:
        mark = "ok " if check["pass"] else "BAD"
        lines.append(
            f"  [{mark}] {check['name']:32s} computed={check['computed']:.12g} "
            f"{check['mode']} {check['expected']:.12g} tol={check['tolerance']:g} "
            f"({check['provenance']})"
        )
    for v in outcome.verdicts:
        expected_violation = v.relation in outcome.expect_violation
        ok = v.holds != expected_violation
        tag = "violated (as required)" if expected_violation and not v.holds else (
            "holds" if v.holds else "VIOLATED"
        )
        lines.append(
            f"  [{'ok ' if ok else 'BAD'}] relation {v.relation:28s} "
            f"lhs={v.lhs:.9g} rhs={v.rhs:.9g} {tag}"
        )
    print("\n".join(lines), file=sys.stderr)


def _parse_overrides(pairs, names, config: RunConfig) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    # Checked for every name before any runs, also with no overrides: the
    # configured grid may not resolve a scenario's defaults.
    for name in names:
        error = override_error(name, overrides, config)
        if error:
            raise ValueError(f"--set {error}" if overrides
                             else f"{name} on the configured grid: {error}")
    return overrides


def cmd_scenario(args) -> int:
    config = _config_from_args(args)
    if args.action == "list":
        payload = {
            "schema": SCHEMA,
            "scenarios": [
                {
                    "name": name,
                    "kind": SCENARIOS[name].kind,
                    "description": SCENARIOS[name].description,
                    "parameters": SCENARIOS[name].parameters,
                }
                for name in scenario_names()
            ],
        }
        return _emit(payload, args)
    # run
    if args.all:
        names = scenario_names()
    elif args.name:
        if args.name not in SCENARIOS:
            print(f"unknown scenario {args.name!r}", file=sys.stderr)
            return EXIT_UNKNOWN
        names = [args.name]
    else:
        print("scenario run needs a NAME or --all", file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        overrides = _parse_overrides(args.set, names, config)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN
    outcomes = []
    for name in names:
        try:
            outcome = run_scenario(name, config, overrides)
        except (ValueError, ArithmeticError) as exc:
            return _numerical_failure(name, exc)
        outcomes.append(outcome)
    for outcome in outcomes:  # only once all have run: a failure prints its line alone
        _print_outcome_table(outcome)
    payload = {
        "schema": SCHEMA,
        "config": _config_to_json(config),
        "scenarios": [_outcome_to_json(o) for o in outcomes],
        "passed": all(o.passed for o in outcomes),
    }
    return _emit(payload, args, payload["passed"])


def _qubit_error_bound_rows(points: int, config: RunConfig) -> list[dict]:
    rows = []
    for theta in np.linspace(0.0, math.pi / 2, points):
        b = math.cos(theta) * EZ + math.sin(theta) * EX
        bound, achieved, _ = qubit_error_bound(EZ, b)
        rows.append({"theta": theta, "lhs": achieved, "rhs": bound, "slack": achieved - bound})
    return rows


def _naive_product_rows(points: int, config: RunConfig) -> list[dict]:
    rows = []
    for theta in np.linspace(0.0, math.pi, points):
        rho = bloch_state(np.array([0.0, math.sin(theta), math.cos(theta)]))
        scheme = swap_scheme(spectral_measure(SIGMA_Z), rho)
        verdict = check_naive_heisenberg(scheme, SIGMA_Z, SIGMA_X, rho)
        rows.append({"theta": theta, "lhs": verdict.lhs, "rhs": verdict.rhs,
                     "slack": verdict.slack})
    return rows


def _branciard_rows(points: int, config: RunConfig) -> list[dict]:
    c, d = feasible_models(np.random.default_rng(config.seed), points)
    rho = np.broadcast_to(bloch_state(EY), (points, 2, 2))
    verdict = branciard_joint(EZ, EX, c, d, rho)
    columns = {
        "c_x": c[:, 0], "c_y": c[:, 1], "c_z": c[:, 2],
        "d_x": d[:, 0], "d_y": d[:, 1], "d_z": d[:, 2],
        "lhs": verdict.lhs, "rhs": verdict.rhs, "slack": verdict.slack,
    }
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


# sweep relation -> rows(points, config): one dict per point, with a "slack" column.
SWEEPS: dict[str, Callable[[int, RunConfig], list[dict]]] = {
    "qubit-error-bound": _qubit_error_bound_rows,
    "naive-product": _naive_product_rows,
    "branciard": _branciard_rows,
}


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    if args.relation not in SWEEPS:
        print(
            f"unknown sweep relation {args.relation!r}; choose from {tuple(SWEEPS)}",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    rows = SWEEPS[args.relation](args.points, config)
    fieldnames = list(rows[0].keys())
    try:
        with open(args.csv_out, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(float(v)) for k, v in row.items()})
    except OSError as exc:
        print(f"cannot write {args.csv_out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    slacks = [row["slack"] for row in rows]
    payload = {
        "schema": SCHEMA,
        "relation": args.relation,
        "points": len(rows),
        "csv": args.csv_out,
        "min_slack": min(slacks),
        "max_slack": max(slacks),
        "negative_slack_rows": sum(1 for s in slacks if s < -SLACK_TOL),
    }
    return _emit(payload, args)


def cmd_wasserstein(args) -> int:
    try:
        mu = read_distribution_csv(args.dist_a)
        nu = read_distribution_csv(args.dist_b)
    except (OSError, ValueError) as exc:
        print(f"malformed distribution input: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    if args.oracle and max(mu.support.size, nu.support.size) > LP_MAX:
        print(f"--oracle takes at most {LP_MAX} support points per side", file=sys.stderr)
        return EXIT_UNKNOWN
    value, coupling = w2_quantile_with_coupling(mu, nu)
    if not math.isfinite(value):
        print(
            f"{args.dist_a}, {args.dist_b}: the 2-deviation exceeds the float range",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    print(f"{value:.12g}")
    if args.oracle:
        oracle = w2_lp_oracle(mu, nu)
        if abs(oracle - value) > ORACLE_TOL * max(1.0, support_reach(mu.support, nu.support)):
            print(
                f"oracle mismatch: quantile={value!r} lp={oracle!r}", file=sys.stderr
            )
            return EXIT_NUMERIC
        print(f"oracle agrees: {oracle:.12g}", file=sys.stderr)
    if args.coupling:
        try:
            coupling.check_marginals(mu, nu)
        except ValueError as exc:
            print(f"coupling verification failed: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        try:
            write_coupling_csv(coupling, args.coupling)
        except OSError as exc:
            print(f"cannot write {args.coupling}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    return EXIT_OK


def _ozawa_branciard_summary(config: RunConfig) -> dict:
    return ozawa_branciard_suite(config.seed, config.budget)


def _naive_product_summary(config: RunConfig) -> dict:
    return {"cases": [verdict_to_json(v) for v in naive_falsification_cases()]}


def _qubit_error_bound_summary(config: RunConfig) -> dict:
    slacks = [row["slack"] for row in _qubit_error_bound_rows(25, config)]
    return {"points": len(slacks), "min_slack": min(slacks), "max_optimality_gap": max(slacks)}


# check relation -> the bundled scenarios its summary runs, on the configured grid
CHECK_SCENARIOS = {"phase-space": ("husimi-saturation", "husimi-squeezed", "husimi-displaced")}


def _phase_space_summary(config: RunConfig) -> dict:
    verdicts = [v for name in CHECK_SCENARIOS["phase-space"]
                for v in run_scenario(name, config).verdicts]
    return {"verdicts": [verdict_to_json(v) for v in verdicts]}


# check relation -> (summary(config), passes(summary)).  The runners look their
# suite up by name on each call, so a patched suite is the one that runs.
CHECKS: dict[str, tuple[Callable[[RunConfig], dict], Callable[[dict], bool]]] = {
    "ozawa": (_ozawa_branciard_summary, lambda s: s["min_ozawa_slack"] >= -SLACK_TOL),
    "branciard": (_ozawa_branciard_summary, lambda s: s["min_branciard_slack"] >= -SLACK_TOL),
    "naive-product": (_naive_product_summary,
                      lambda s: not any(case["holds"] for case in s["cases"])),
    "unbiased": (
        lambda config: unbiased_model_suite(config.seed, config.budget),
        lambda s: all(v >= -SLACK_TOL for k, v in s.items() if k.startswith("min_slack")),
    ),
    "qubit-error-sum": (lambda config: epsno_sum_suite(config.seed, config.budget),
                        lambda s: s["min_slack"] >= -SLACK_TOL),
    "qubit-error-bound": (
        _qubit_error_bound_summary,
        lambda s: s["min_slack"] >= -SLACK_TOL and s["max_optimality_gap"] <= SLACK_TOL,
    ),
    "phase-space": (_phase_space_summary, lambda s: all(v["holds"] for v in s["verdicts"])),
    "eps-forms": (lambda config: eps_form_equivalence_suite(config.seed, config.budget),
                  lambda s: s["max_form_gap"] < FORM_TOL),
}


def cmd_check(args) -> int:
    config = _config_from_args(args)
    if args.relation not in CHECKS:
        print(
            f"unknown relation {args.relation!r}; choose from {tuple(CHECKS)}",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    try:
        _parse_overrides((), CHECK_SCENARIOS.get(args.relation, ()), config)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN
    summary_of, passes = CHECKS[args.relation]
    try:
        summary = summary_of(config)
    except (ValueError, ArithmeticError) as exc:
        return _numerical_failure(args.relation, exc)
    ok = bool(passes(summary))
    payload = {
        "schema": SCHEMA,
        "relation": args.relation,
        "config": _config_to_json(config),
        "summary": _encode_tree(summary),
        "passed": ok,
    }
    return _emit(payload, args, ok)


def _encode_tree(obj):
    if isinstance(obj, dict):
        return {k: _encode_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_tree(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return encode_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    """Global flags, valid before or after the subcommand.

    Subcommand copies default to SUPPRESS so they never clobber values
    parsed at the top level.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    for f, key in _config_fields():
        parser.add_argument("--" + key.replace("_", "-"), type=type(f.default),
                            default=default(f.default), help=f.metadata["help"])
    parser.add_argument(
        "--out", default=default(None), help="write the JSON report here instead of stdout"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qmu`` parser, built on the first call and shared by every later one.

    ``parse_args`` keeps no state between calls, so ``main`` can reuse it;
    callers must not add arguments or change defaults on the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="qmu",
        description=(
            "Quantum measurement rms-error metrics and uncertainty-relation "
            "checkers on a reproducible scenario library."
        ),
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    scen = sub.add_parser("scenario", help="list or run bundled scenarios")
    _add_global_flags(scen, suppress=True)
    scen.add_argument("action", choices=["list", "run"])
    scen.add_argument("name", nargs="?", help="scenario name (for run)")
    scen.add_argument("--all", action="store_true", help="run every scenario")
    scen.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a parameter"
    )
    scen.set_defaults(func=cmd_scenario)

    sweep = sub.add_parser("sweep", help="parameter sweep of a relation, CSV output")
    _add_global_flags(sweep, suppress=True)
    sweep.add_argument("relation", help=f"one of {tuple(SWEEPS)}")
    sweep.add_argument("csv_out", help="CSV output path")
    sweep.add_argument("--points", type=int, default=50)
    sweep.set_defaults(func=cmd_sweep)

    wass = sub.add_parser("wasserstein", help="2-deviation between two CSV distributions")
    _add_global_flags(wass, suppress=True)
    wass.add_argument("dist_a")
    wass.add_argument("dist_b")
    wass.add_argument("--oracle", action="store_true", help="cross-check with the LP oracle")
    wass.add_argument("--coupling", help="write the optimal coupling to this CSV")
    wass.set_defaults(func=cmd_wasserstein)

    check = sub.add_parser("check", help="run a relation's bundled suite")
    _add_global_flags(check, suppress=True)
    check.add_argument("relation", help=f"one of {tuple(CHECKS)}")
    check.set_defaults(func=cmd_check)
    return parser


def _input_error(args) -> str | None:
    """One-line message for a malformed numeric flag, or None; checked before any work."""
    for flag, error in (("--grid-n", grid_size_error(args.grid_n)),
                        ("--grid-L", half_width_error(args.grid_L))):
        if error:
            return f"{flag}: {error}"
    if args.seed < 0:
        return f"--seed must be at least 0, got {args.seed}"
    if not (math.isfinite(args.hbar_scale) and args.hbar_scale > 0):
        return f"--hbar-scale must be a finite number above 0, got {args.hbar_scale}"
    if args.command == "sweep" and args.points < 1:
        return f"--points must be at least 1, got {args.points}"
    if args.command == "check" and args.budget < 1:
        return f"--budget must be at least 1, got {args.budget}"
    return None


def _numerical_failure(where: str, exc: Exception) -> int:
    """Print the one line of a numerical failure in ``where``; returns ``EXIT_NUMERIC``.

    Python's float arithmetic reports an overflow with an errno tuple, such as
    (34, 'Numerical result out of range'), so an overflow prints its text.
    """
    text = f"float overflow ({exc.args[-1]})" if isinstance(exc, OverflowError) else exc
    print(f"numerical failure in {where}: {text}", file=sys.stderr)
    return EXIT_NUMERIC


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _input_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
