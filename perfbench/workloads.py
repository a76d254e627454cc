"""The four benchmark workloads: generated inputs, items and output checks.

A workload is built from the benchmark seed (input generation), runs one
untimed warm-up item, and then hands out rounds: the same list of items in
every round, so each run attempts whole rounds and the share of failed items
is fixed.  Each item is one call into ``qmu`` (timed) and a check of its
output against :mod:`reference` (untimed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from qmu import cli, errmetrics, observables, schemes
from qmu.distributions import make_distribution

SLACK_TOL = 1e-9
FORM_GAP_TOL = 1e-9


@dataclass
class Item:
    """One call into the program, the check of its output, and its weight.

    ``weight`` is the number of items the call stands for (draws of a suite
    call, scenarios of a pass).  Problems whose text starts with
    ``known_fault`` come from a fault the README names; they count the item
    as failed without making the run incorrect.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    weight: int = 1
    known_fault: str | None = None


def run_cli(argv) -> tuple[int, str]:
    """``qmu.cli.main`` in-process; returns the exit code and stdout text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _payload(result, problems: list) -> dict | None:
    code, text = result
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None
    if payload.get("passed") is not True:
        problems.append("report says passed=false")
    return payload


# ---------------------------------------------------------------------------
# Random inputs (plain numpy)
# ---------------------------------------------------------------------------


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def haar_unitary(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def density(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def hermitian(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (z + z.conj().T)


def distinct_sorted(rng, n: int, lo: float, hi: float, gap: float = 1e-2) -> np.ndarray:
    while True:
        v = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(v)) > gap:
            return v


# ---------------------------------------------------------------------------
# check-suites
# ---------------------------------------------------------------------------


class CheckSuites:
    """``qmu check`` on the randomized relation suites; an item is one draw."""

    BUDGETS = (("ozawa", 200), ("eps-forms", 200), ("unbiased", 200), ("qubit-error-sum", 1000))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.draws = [self._scheme_draw(rng, d_probe) for d_probe in (2, 3) * 3]

    @staticmethod
    def _scheme_draw(rng, d_probe: int) -> dict:
        d_obj = 2
        basis = haar_unitary(d_probe, rng)
        return {
            "u": haar_unitary(d_obj * d_probe, rng),
            "sigma": density(d_probe, rng),
            "basis": basis,
            "z": distinct_sorted(rng, d_probe, -1.5, 1.5),
            "f": rng.uniform(-2.0, 2.0, d_probe),
            "a": hermitian(d_obj, rng),
            "b": hermitian(d_obj, rng),
            "rho": density(d_obj, rng),
        }

    def _call_seed(self, r: int, k: int) -> int:
        return (self.seed * 1_000_003 + r * len(self.BUDGETS) + k) % (2**31)

    def _item(self, relation: str, budget: int, call_seed: int) -> Item:
        argv = ["check", relation, "--budget", budget, "--seed", call_seed]
        return Item(
            f"check {relation} --seed {call_seed}",
            lambda: run_cli(argv),
            lambda result: self._check(relation, budget, result),
            weight=budget,
        )

    def warmup(self) -> Item:
        return self._item("ozawa", 1, self._call_seed(-1, 0))

    def items(self, r: int) -> list[Item]:
        return [self._item(rel, budget, self._call_seed(r, k))
                for k, (rel, budget) in enumerate(self.BUDGETS)]

    @staticmethod
    def _check(relation: str, budget: int, result) -> list:
        problems: list = []
        payload = _payload(result, problems)
        if payload is None:
            return problems
        summary = payload["summary"]
        if summary.get("draws") != budget:
            problems.append(f"draws {summary.get('draws')} != budget {budget}")
        if relation == "eps-forms":
            gaps = {"max_form_gap": summary["max_form_gap"]}
            bad = {k: v for k, v in gaps.items() if not v < FORM_GAP_TOL}
        else:
            slacks = {k: v for k, v in summary.items() if "slack" in k}
            if not slacks:
                problems.append("summary has no slack figures")
            bad = {k: v for k, v in slacks.items() if not v >= -SLACK_TOL}
            if summary.get("violations", 0) != 0:
                problems.append(f"violations {summary['violations']}")
        problems.extend(f"{k} = {v!r}" for k, v in bad.items())
        return problems

    def final_checks(self) -> list:
        """Noise-operator error and disturbance against plain numpy."""
        problems = []
        for n, draw in enumerate(self.draws):
            pointer_op = (draw["basis"] * draw["z"]) @ draw["basis"].conj().T
            scheme = schemes.MeasurementScheme(
                probe_state=draw["sigma"],
                coupling=draw["u"],
                pointer=observables.spectral_measure(pointer_op),
                pointer_values=draw["f"],
            )
            eps = errmetrics.eps_no_from_scheme(scheme, draw["a"], draw["rho"])
            eta = errmetrics.eta_no_from_scheme(scheme, draw["b"], draw["rho"])
            eps_ref, eta_ref = ref.noise_error_disturbance(
                draw["u"], draw["sigma"], draw["basis"], draw["f"], draw["a"], draw["b"], draw["rho"]
            )
            if not ref.close(eps, eps_ref, 1e-10):
                problems.append(f"draw {n}: eps_no {eps!r} != {eps_ref!r}")
            if not ref.close(eta, eta_ref, 1e-10):
                problems.append(f"draw {n}: eta_no {eta!r} != {eta_ref!r}")
        return problems


# ---------------------------------------------------------------------------
# state-sups
# ---------------------------------------------------------------------------


@dataclass
class Pair:
    """Target A, approximator C and state, with the benchmark's own data.

    ``values``/``bases`` give A's distinct eigenvalues and orthonormal
    eigenspace bases; ``outcomes``/``effects`` list C's outcome values and
    effects as generated (possibly repeated values, never merged).
    """

    kind: str
    a: np.ndarray
    c: observables.Observable
    rho: np.ndarray
    values: np.ndarray
    bases: list
    outcomes: np.ndarray
    effects: np.ndarray
    worst: float | None  # exact worst case where a closed form exists

    def distributions(self, rho):
        projs = np.stack([b @ b.conj().T for b in self.bases])
        return (self.values, ref.born(projs, rho), self.outcomes, ref.born(self.effects, rho))


def _target(rng, d: int, values: np.ndarray, multiplicity: int = 1):
    u = haar_unitary(d, rng)
    spectrum = np.repeat(values, multiplicity)
    a = (u * spectrum) @ u.conj().T
    bases = [u[:, k * multiplicity:(k + 1) * multiplicity] for k in range(values.size)]
    return 0.5 * (a + a.conj().T), bases


def qubit_pair(rng) -> Pair:
    values = np.array([-1.0, 1.0])
    a, bases = _target(rng, 2, values)
    a_vec = np.array([np.trace(a @ s).real / 2 for s in _PAULI])
    c0 = rng.uniform(0.1, 1.9)
    direction = rng.standard_normal(3)
    c_vec = rng.uniform(0.0, min(c0, 2.0 - c0)) * direction / np.linalg.norm(direction)
    c_plus = 0.5 * (c0 * np.eye(2) + np.einsum("k,kij->ij", c_vec, _PAULI))
    effects = np.stack([np.eye(2) - c_plus, c_plus])
    c = observables.Observable(values, effects)
    return Pair("qubit", a, c, density(2, rng), values, bases, values, effects,
                ref.qubit_worst(a_vec, c0, c_vec))


def smeared_pair(rng, d: int) -> Pair:
    values = distinct_sorted(rng, d, -2.0, 2.0)
    a, bases = _target(rng, d, values)
    shifts = distinct_sorted(rng, 3, -0.6, 0.6)
    weights = rng.dirichlet(np.ones(3))
    c = observables.smear(observables.spectral_measure(a), make_distribution(shifts, weights))
    outcomes = np.array([x + y for y in shifts for x in values])
    effects = np.stack([w * (b @ b.conj().T) for w in weights for b in bases])
    return Pair(f"smeared-d{d}", a, c, density(d, rng), values, bases, outcomes, effects,
                math.sqrt(float(np.sum(weights * shifts**2))))


def degenerate_pair(rng) -> Pair:
    d = 6
    values = distinct_sorted(rng, 2, -2.0, 2.0, gap=0.5)
    a, bases = _target(rng, d, values, multiplicity=3)
    grams = []
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        grams.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = np.stack([inv_sqrt @ g @ inv_sqrt for g in grams])
    effects = 0.5 * (effects + effects.conj().transpose(0, 2, 1))
    outcomes = distinct_sorted(rng, 3, -2.0, 2.0)
    c = observables.Observable(outcomes, effects)
    return Pair("degenerate-d6", a, c, density(d, rng), values, bases, outcomes, effects, None)


class StateSups:
    """``errmetrics.error_report`` on generated pairs; an item is one report.

    The degenerate pairs come from a fixed seed, so their known failure does
    not depend on the benchmark seed.
    """

    DEGENERATE_SEED = 7
    DEGENERATE_PAIRS = 4
    CALIBRATION_FAULT = "calibration"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 2])
        fixed = np.random.default_rng(self.DEGENERATE_SEED)
        self.degenerate = [degenerate_pair(fixed) for _ in range(self.DEGENERATE_PAIRS)]
        self.first = qubit_pair(self.rng)

    def _item(self, pair: Pair) -> Item:
        return Item(
            pair.kind,
            lambda: errmetrics.error_report(pair.a, pair.c, pair.rho),
            lambda rep: self._check(pair, rep),
            known_fault=self.CALIBRATION_FAULT if pair.kind.startswith("degenerate") else None,
        )

    def warmup(self) -> Item:
        return self._item(self.first)

    def items(self, r: int) -> list[Item]:
        pairs = [qubit_pair(self.rng), qubit_pair(self.rng)]
        pairs += [smeared_pair(self.rng, d) for d in (3, 4, 6)]
        pairs.append(self.degenerate[r % self.DEGENERATE_PAIRS])
        return [self._item(p) for p in pairs]

    def _check(self, pair: Pair, rep) -> list:
        problems = []
        values, p_a, outcomes, p_c = pair.distributions(pair.rho)
        expected = {
            "eps_no": ref.eps_moments(pair.a, pair.outcomes, pair.effects, pair.rho),
            "w2_state": ref.w2(values, p_a, outcomes, p_c),
        }
        if pair.worst is not None:
            expected["w2_worst"] = pair.worst
        cal = ref.calibration(pair.values, pair.bases, pair.outcomes, pair.effects)
        for name, value in expected.items():
            got = getattr(rep, name)
            if not ref.close(got, value):
                problems.append(f"{name} {got!r} != {value!r}")
        if not ref.close(rep.calibration, cal):
            problems.append(f"{self.CALIBRATION_FAULT} {rep.calibration!r} != exact {cal!r}")
        if pair.worst is None:
            support = np.concatenate([pair.values, pair.outcomes])
            diameter = float(support.max() - support.min())
            if rep.w2_worst < cal - 1e-9:
                problems.append(f"w2_worst {rep.w2_worst!r} below exact calibration {cal!r}")
            if rep.w2_worst > diameter + 1e-9:
                problems.append(f"w2_worst {rep.w2_worst!r} above diameter {diameter!r}")
            at_witness = ref.w2(*pair.distributions(ref.pure(rep.witness_state)))
            if not ref.close(at_witness, rep.w2_worst):
                problems.append(f"witness attains {at_witness!r}, not w2_worst {rep.w2_worst!r}")
        return problems

    def final_checks(self) -> list:
        return []


def fingerprint(result):
    """A comparable form of an item's output, for same-input comparisons."""
    if isinstance(result, errmetrics.ErrorReport):
        witness = b"" if result.witness_state is None else result.witness_state.tobytes()
        return (result.eps_no, result.w2_state, result.w2_worst, result.calibration,
                result.bias, result.intrinsic_noise_expectation, witness)
    return result


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def write_csv(path: Path, values, probs):
    lines = ["value,probability"]
    lines += [f"{float(v)!r},{float(p)!r}" for v, p in zip(values, probs)]
    path.write_text("\n".join(lines) + "\n")


class Transport:
    """``qmu wasserstein`` on generated CSV pairs; an item is one command.

    Each round runs one random pair and one translated pair, each once
    value-only and once with ``--coupling``.  The pairs cycle through a pool,
    so repeated commands must give identical bytes.
    """

    SIZES = (2048, 1536)  # random pair: support points of the two sides
    TRANSLATED_SIZE = 1536
    POOL = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.pairs = []
        for k in range(self.POOL):
            m, n = self.SIZES
            mu = (np.sort(rng.normal(0.0, 1.0, m)), rng.dirichlet(np.ones(m)))
            nu = (np.sort(rng.normal(0.4, 1.3, n)), rng.dirichlet(np.ones(n)))
            self.pairs.append(self._pair(f"random{k}", mu, nu, None))
            x = distinct_sorted(rng, self.TRANSLATED_SIZE, -3.0, 3.0, gap=1e-9)
            p = rng.dirichlet(np.ones(self.TRANSLATED_SIZE))
            t = rng.uniform(-2.0, 2.0)
            self.pairs.append(self._pair(f"translated{k}", (x, p), (x + t, p), abs(t)))
        self.seen: dict = {}

    def _pair(self, key, mu, nu, shift):
        a, b = self.workdir / f"{key}_a.csv", self.workdir / f"{key}_b.csv"
        write_csv(a, *mu)
        write_csv(b, *nu)
        return {"key": key, "a": a, "b": b, "mu": mu, "nu": nu,
                "w2": ref.w2(*mu, *nu), "shift": shift}

    def _item(self, pair: dict, coupling: bool) -> Item:
        argv = ["wasserstein", pair["a"], pair["b"]]
        path = self.workdir / f"{pair['key']}_coupling.csv"
        if coupling:
            argv += ["--coupling", path]
        return Item(
            f"wasserstein {pair['key']}{' --coupling' if coupling else ''}",
            lambda: run_cli(argv),
            lambda result: self._check(pair, result, path if coupling else None),
        )

    def warmup(self) -> Item:
        return self._item(self.pairs[0], False)

    def items(self, r: int) -> list[Item]:
        k = r % self.POOL
        random_pair, translated = self.pairs[2 * k], self.pairs[2 * k + 1]
        return [self._item(random_pair, False), self._item(random_pair, True),
                self._item(translated, False), self._item(translated, True)]

    def _check(self, pair: dict, result, coupling_path) -> list:
        problems = []
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        value = float(text.strip())
        if not ref.close(value, pair["w2"]):
            problems.append(f"w2 {value!r} != reference {pair['w2']!r}")
        if pair["shift"] is not None and not ref.close(value, pair["shift"]):
            problems.append(f"w2 {value!r} != translation {pair['shift']!r}")
        digest = hashlib.sha256(text.encode())
        if coupling_path is not None:
            data = coupling_path.read_bytes()
            coupling_path.unlink()  # the next command must write it afresh
            digest.update(data)
            problems.extend(self._check_coupling(pair, data))
        key = (pair["key"], coupling_path is not None)
        first = self.seen.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("output bytes differ from an earlier run of the same command")
        return problems

    @staticmethod
    def _check_coupling(pair: dict, data: bytes) -> list:
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        (x, p), (y, q) = pair["mu"], pair["nu"]
        problems = []
        if rows.shape[0] > x.size + y.size - 1:
            problems.append(f"coupling has {rows.shape[0]} rows, more than m+n-1")
        i = np.searchsorted(x, rows[:, 0])
        j = np.searchsorted(y, rows[:, 1])
        if (np.any(i >= x.size) or np.any(j >= y.size)
                or np.any(x[np.minimum(i, x.size - 1)] != rows[:, 0])
                or np.any(y[np.minimum(j, y.size - 1)] != rows[:, 1])):
            return problems + ["coupling rows name values outside the supports"]
        if np.max(np.abs(np.bincount(i, rows[:, 2], x.size) - p)) > 1e-9:
            problems.append("coupling row sums do not reproduce the first marginal")
        if np.max(np.abs(np.bincount(j, rows[:, 2], y.size) - q)) > 1e-9:
            problems.append("coupling column sums do not reproduce the second marginal")
        cost = float(np.sum(rows[:, 2] * (rows[:, 0] - rows[:, 1]) ** 2))
        if not ref.close(cost, pair["w2"] ** 2):
            problems.append(f"coupling cost {cost!r} != w2^2 {pair['w2'] ** 2!r}")
        return problems

    def final_checks(self) -> list:
        return []


# ---------------------------------------------------------------------------
# scenario-library
# ---------------------------------------------------------------------------


class ScenarioLibrary:
    """``qmu scenario run --all --out FILE`` passes; an item is one scenario."""

    WARMUP_SCENARIO = "covariant-qubit-pair"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 1000
        self.workdir = workdir
        code, text = run_cli(["scenario", "list"])
        if code != 0:
            raise RuntimeError(f"qmu scenario list exited {code}")
        self.names = sorted(s["name"] for s in json.loads(text)["scenarios"])
        self.first_pass: bytes | None = None

    def _item(self, names, check) -> Item:
        out = self.workdir / "report.json"
        argv = ["scenario", "run", *names, "--seed", self.seed, "--out", out]
        return Item(
            f"scenario run {' '.join(names)}",
            lambda: run_cli(argv)[0],
            lambda code: check((code, self._take(out))),
            weight=len(self.names) if names == ["--all"] else 1,
        )

    @staticmethod
    def _take(path: Path) -> str:
        """Read a report and remove it, so the next pass must write it afresh."""
        text = path.read_text()
        path.unlink()
        return text

    def warmup(self) -> Item:
        return self._item([self.WARMUP_SCENARIO],
                          lambda result: self._check(result, [self.WARMUP_SCENARIO]))

    def items(self, r: int) -> list[Item]:
        return [self._item(["--all"], self._check_pass)]

    def _check_pass(self, result) -> list:
        problems = self._check(result, self.names)
        data = result[1].encode()
        if self.first_pass is None:
            self.first_pass = data
        elif data != self.first_pass:
            problems.append("--out bytes differ from the first pass with the same seed")
        return problems

    @staticmethod
    def _check(result, names) -> list:
        problems: list = []
        payload = _payload(result, problems)
        if payload is None:
            return problems
        scenarios = {s["name"]: s for s in payload["scenarios"]}
        if sorted(scenarios) != sorted(names):
            problems.append(f"scenarios {sorted(scenarios)} != {sorted(names)}")
        problems.extend(f"{n} did not pass" for n, s in scenarios.items() if not s["passed"])

        def expect(name, key, value, tol):
            if name in scenarios:
                got = scenarios[name]["values"][key]
                if not abs(got - value) <= tol:
                    problems.append(f"{name} {key} {got!r} != {value!r}")

        if "qubit-approx-smearing" in scenarios:
            gamma = scenarios["qubit-approx-smearing"]["parameters"]["gamma"]
            target = math.sqrt(2 * (1 - gamma))
            expect("qubit-approx-smearing", "w2_worst", target, 1e-9)
            expect("qubit-approx-smearing", "eps_no", target, 1e-9)
        if "covariant-qubit-pair" in scenarios:
            if scenarios["covariant-qubit-pair"]["parameters"]["angle"] != math.pi / 2:
                problems.append("covariant-qubit-pair angle is not pi/2")
            expect("covariant-qubit-pair", "bound", 4 - 2 * math.sqrt(2), 1e-12)
        expect("trivial-approximator", "eps_no", math.sqrt(2), 1e-9)
        for name in ("husimi-saturation", "husimi-squeezed", "husimi-displaced"):
            expect(name, "spread_product", 0.5, 1e-4)
        return problems

    def final_checks(self) -> list:
        return []


WORKLOADS = {
    "check-suites": CheckSuites,
    "state-sups": StateSups,
    "transport": Transport,
    "scenario-library": ScenarioLibrary,
}
