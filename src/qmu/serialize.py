"""JSON and CSV encodings for the wire formats.

Complex entries encode as two-element arrays [re, im]; matrices as row-major
nested arrays.  Distributions travel as two-column CSV (value, probability).
Non-finite report fields encode as the strings "inf", "-inf" and "nan", so
every report is strict JSON.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .distributions import Coupling, Distribution
from .errmetrics import ErrorReport
from .grid import GridSystem
from .observables import BlochObservable, Observable, SharpObservable
from .relations import RelationVerdict
from .schemes import MeasurementScheme

SCHEMA = "qmu/1"


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix encoding must be a nested [re, im] array")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_float(x: float):
    if math.isfinite(x):
        return float(x)
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def encode_vector(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]


def observable_to_json(obs: Observable) -> dict:
    return {
        "outcomes": [float(x) for x in obs.outcomes],
        "effects": [encode_matrix(e) for e in obs.effects],
    }


def observable_from_json(data: dict, sharp: bool = False) -> Observable:
    effects = np.stack([decode_matrix(e) for e in data["effects"]])
    cls = SharpObservable if sharp else Observable
    return cls(np.asarray(data["outcomes"], dtype=float), effects)


def bloch_observable_to_json(obs: BlochObservable) -> dict:
    return {"c0": float(obs.c0), "c": [float(x) for x in obs.c]}


def bloch_observable_from_json(data: dict) -> BlochObservable:
    return BlochObservable(float(data["c0"]), np.asarray(data["c"], dtype=float))


def scheme_to_json(scheme: MeasurementScheme) -> dict:
    return {
        "probe_dim": scheme.probe_dim,
        "sigma": encode_matrix(scheme.probe_state),
        "U": encode_matrix(scheme.coupling),
        "Z": observable_to_json(scheme.pointer),
        "pointer_map": [
            [float(z), float(f)]
            for z, f in zip(scheme.pointer.outcomes, scheme.pointer_values)
        ],
    }


def scheme_from_json(data: dict) -> MeasurementScheme:
    pointer = observable_from_json(data["Z"], sharp=True)
    pointer_map = {z: f for z, f in data["pointer_map"]}
    values = np.array([pointer_map[float(z)] for z in pointer.outcomes])
    return MeasurementScheme(
        probe_state=decode_matrix(data["sigma"]),
        coupling=decode_matrix(data["U"]),
        pointer=pointer,
        pointer_values=values,
    )


def verdict_to_json(v: RelationVerdict) -> dict:
    out = {
        "relation": v.relation,
        "lhs": encode_float(v.lhs),
        "rhs": encode_float(v.rhs),
        "slack": encode_float(v.slack),
        "holds": bool(v.holds),
        "witnesses": {k: encode_float(float(x)) for k, x in v.witnesses.items()},
    }
    if v.note:
        out["note"] = v.note
    return out


def report_to_json(rep: ErrorReport) -> dict:
    out = {
        "eps_no": encode_float(rep.eps_no),
        "w2_state": encode_float(rep.w2_state),
        "w2_worst": encode_float(rep.w2_worst),
        "w2_worst_method": "exact" if rep.w2_worst_exact else "search-lower-bound",
        "calibration": encode_float(rep.calibration),
        "bias": encode_float(rep.bias),
        "intrinsic_noise_expectation": encode_float(rep.intrinsic_noise_expectation),
    }
    if rep.witness_state is not None:
        out["witness_state"] = encode_vector(rep.witness_state)
    if rep.calibration_witness is not None:
        out["calibration_witness_state"] = encode_vector(rep.calibration_witness)
    return out


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def read_distribution_csv(path) -> Distribution:
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


def write_distribution_csv(dist: Distribution, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "probability"])
        for v, p in zip(dist.support, dist.probs):
            writer.writerow([repr(float(v)), repr(float(p))])


def write_coupling_csv(coupling: Coupling, path):
    """One row per cell of positive weight, in the coupling's cell order."""
    keep = coupling.weights > 0
    xs = coupling.row_support[coupling.rows[keep]].tolist()
    ys = coupling.col_support[coupling.cols[keep]].tolist()
    ws = coupling.weights[keep].tolist()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row_value", "col_value", "weight"])
        writer.writerows([repr(x), repr(y), repr(w)] for x, y, w in zip(xs, ys, ws))


def grid_config_to_json(grid) -> dict:
    return {"n": int(grid.n), "L": float(grid.half_width)}


def grid_config_from_json(data: dict):
    return GridSystem(int(data["n"]), float(data["L"]))
