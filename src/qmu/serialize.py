"""JSON and CSV encodings for the wire formats.

Complex entries encode as two-element arrays [re, im]; matrices as row-major
nested arrays.  Distributions travel as two-column CSV (value, probability).
Non-finite report fields encode as the strings "inf", "-inf" and "nan", so
every report is strict JSON.
"""

from __future__ import annotations

import json
import math
import re

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


# A line starting with one of these is a data row; only others may be skipped.
_NUMBER_START = frozenset("0123456789+-.")
# As in the csv module, a quote opens a field only at its start and is
# literal elsewhere; "" inside quotes is one quote.  A line matches
# _CLOSED_LINE when every quoted field closes on it.
_FIELD = r'(?:"(?:[^"]|"")*"(?!")[^,]*|[^,"][^,]*|)'
_CLOSED_LINE = re.compile(rf"{_FIELD}(?:,{_FIELD})*")
_QUOTED_FIRST_FIELD = re.compile(r'"((?:[^"]|"")*)"([^,]*)')
_ROW_INDEX = re.compile(r" at row \d+")
# Whitespace around a number to loadtxt, but not to float().  A file is
# tested with one ``in`` per character: a regex class scans far slower.
_SEPARATOR_CHARS = "\x1c\x1d\x1e\x1f"
_SEPARATOR_CONTROLS = re.compile(f"[{_SEPARATOR_CHARS}]")


def _first_field(line: str) -> str:
    """The first field of a closed line, unquoted as the ``csv`` module reads it."""
    if line.startswith('"'):
        quoted = _QUOTED_FIRST_FIELD.match(line)
        return quoted[1].replace('""', '"') + quoted[2]
    return line.partition(",")[0]


def _is_skipped(line: str) -> bool:
    """A blank line, a ``#`` comment or a value/x header."""
    first = _first_field(line).strip()
    return not line or first.startswith("#") or first.lower() in ("value", "x")


def _parse_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(
        lines, delimiter=",", usecols=(0, 1), ndmin=2, comments=None, quotechar='"'
    )


def _first_bad_line(lines: list[str]) -> int:
    """Index of the line at which ``_parse_rows(lines)`` fails.

    Lines parse one after another, so a prefix fails exactly when it
    reaches that line: bisect on prefixes.  Every prefix tried holds a
    nonblank line, so none parses to an empty table (which loadtxt warns
    of).  Only a failed read pays for this.
    """
    lo, hi = next(k for k, line in enumerate(lines) if line), len(lines) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[: mid + 1])
        except ValueError:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _read_table(text: str) -> np.ndarray:
    """The (rows, 2) value/probability table of a distribution CSV's text.

    Skipped lines are emptied, which ``np.loadtxt`` skips as well, so list
    indices stay line numbers; one ``np.loadtxt`` call parses the rest.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if '"' in text:
        for k, line in enumerate(lines):
            if '"' in line and not _CLOSED_LINE.fullmatch(line):
                raise ValueError(f"line {k + 1}: a quoted field runs past the line end")
    for k, line in enumerate(lines):
        if line[:1] not in _NUMBER_START and _is_skipped(line):
            lines[k] = ""
    if not any(lines):
        raise ValueError("distribution CSV is empty")
    if any(c in text for c in _SEPARATOR_CHARS):
        for k, line in enumerate(lines):
            if _SEPARATOR_CONTROLS.search(",".join(line.split(",", 2)[:2])):
                raise ValueError(f"line {k + 1}: control character U+001C-U+001F in a number")
    try:
        return _parse_rows(lines)
    except ValueError as exc:
        reason = _ROW_INDEX.sub("", str(exc)).rstrip(".")
        raise ValueError(f"line {_first_bad_line(lines) + 1}: {reason}") from None


def read_distribution_csv(path) -> Distribution:
    """Read a value,probability CSV; malformed input raises ValueError naming the file.

    Blank lines, lines whose first field starts with ``#`` and value/x header
    lines are skipped.  Each number is converted as ``float()`` converts it;
    columns past the second are ignored.  A row that does not parse is named
    by its 1-based line.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            table = _read_table(handle.read())
        order = np.argsort(table[:, 0])
        return Distribution(table[order, 0], table[order, 1])
    except ValueError as exc:  # an OSError names the file already
        raise ValueError(f"{path}: {exc}") from None


def write_coupling_csv(coupling: Coupling, path):
    """One row per cell of positive weight, in the coupling's cell order.

    The bytes are those ``csv.writer`` wrote: each number as its ``repr``,
    no quoting, CRLF line ends.  Each support point is formatted once.
    """
    keep = coupling.weights > 0
    xs = [repr(x) for x in coupling.row_support.tolist()]
    ys = [repr(y) for y in coupling.col_support.tolist()]
    cells = zip(
        coupling.rows[keep].tolist(),
        coupling.cols[keep].tolist(),
        coupling.weights[keep].tolist(),
    )
    with open(path, "w", newline="") as handle:
        handle.write("row_value,col_value,weight\r\n")
        handle.write("".join([f"{xs[i]},{ys[j]},{w!r}\r\n" for i, j, w in cells]))


def grid_config_to_json(grid) -> dict:
    return {"n": int(grid.n), "L": float(grid.half_width)}


def grid_config_from_json(data: dict):
    return GridSystem(int(data["n"]), float(data["L"]))
