"""StateFile parsing and serialization.

The on-disk format is a small JSON document tagged "qpair-state/1" that
carries either the Pauli parameters {s, t, C} or a density matrix
{rho: {re, im}}.  Numbers are emitted with Python's shortest round-trip
representation (at most 17 significant digits, exact for 64-bit floats)
and keys are sorted, so serialization is byte-reproducible and
parse(serialize(state)) returns the state bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Optional

import numpy as np

from .errors import RepresentationError, StateFileError
from .state import TwoQubitState, from_density_matrix

__all__ = ["FORMAT_TAG", "parse_state", "serialize_state"]

FORMAT_TAG = "qpair-state/1"


def dump_json(obj, pretty: bool = False) -> str:
    """Render a report object deterministically: sorted keys, exact floats."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def state_payload(state: TwoQubitState) -> dict:
    """The {s, t, C} payload of a state, as plain Python lists."""
    return {"s": state.s.tolist(), "t": state.t.tolist(), "C": state.C.tolist()}


def serialize_state(
    state: TwoQubitState,
    metadata: Optional[Mapping[str, str]] = None,
    pretty: bool = False,
) -> str:
    doc = {"format": FORMAT_TAG, **state_payload(state)}
    if metadata:
        doc["metadata"] = {str(k): str(v) for k, v in metadata.items()}
    return dump_json(doc, pretty=pretty)


def _require(condition: bool, message: str, location: str):
    if not condition:
        raise StateFileError(message, location=location)


def _real_array(node, shape, location):
    _require(isinstance(node, list), "expected a list", location)
    arr = []
    if len(shape) == 1:
        _require(len(node) == shape[0], f"expected {shape[0]} entries", location)
        for j, x in enumerate(node):
            # parse_state reads every JSON number as a float, and true/false as bool
            _require(isinstance(x, float), "expected a number", f"{location}[{j}]")
            _require(math.isfinite(x), "non-finite number", f"{location}[{j}]")
            arr.append(x)
        return np.array(arr)
    _require(len(node) == shape[0], f"expected {shape[0]} rows", location)
    return np.array(
        [_real_array(row, shape[1:], f"{location}[{i}]") for i, row in enumerate(node)]
    )


def parse_state(text) -> TwoQubitState:
    """Parse a StateFile (bytes or str) into a TwoQubitState.

    Errors carry a location: the JSON line/column for syntax problems, a
    JSONPath-style pointer for structural ones.  A rho payload is converted
    through from_density_matrix, so non-Hermitian or trace-deficient
    matrices are rejected here; parameter-range problems (an entry of C
    outside [-1, 1], say) are not parse errors and pass through for
    ``check`` to judge.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StateFileError(f"not valid UTF-8: {exc}", location="$") from None
    try:
        # an integer reads as float(int) would (+0.0 for -0), but one too big for a float as inf
        doc = json.loads(text, parse_int=lambda digits: float(digits) + 0.0)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"malformed JSON: {exc.msg}", location=f"line {exc.lineno} column {exc.colno}"
        ) from None
    except RecursionError:
        raise StateFileError("JSON nested too deeply", location="$") from None
    _require(isinstance(doc, dict), "top level must be an object", "$")
    tag = doc.get("format")
    _require("format" in doc, "missing format tag", "$.format")
    _require(tag == FORMAT_TAG, f"unknown format tag {tag!r}", "$.format")

    known = {"format", "s", "t", "C", "rho", "metadata"}
    for key in doc:
        _require(key in known, f"unknown key {key!r}", f"$.{key}")
    if "metadata" in doc:
        _require(isinstance(doc["metadata"], dict), "metadata must be an object", "$.metadata")
        for k, v in doc["metadata"].items():
            _require(isinstance(v, str), "metadata values must be strings", f"$.metadata.{k}")

    has_pauli = any(k in doc for k in ("s", "t", "C"))
    has_rho = "rho" in doc
    _require(not (has_pauli and has_rho), "give either s/t/C or rho, not both", "$")
    _require(has_pauli or has_rho, "missing payload: need s/t/C or rho", "$")

    if has_pauli:
        for k in ("s", "t", "C"):
            _require(k in doc, f"missing key {k!r}", f"$.{k}")
        return TwoQubitState(
            s=_real_array(doc["s"], (3,), "$.s"),
            t=_real_array(doc["t"], (3,), "$.t"),
            C=_real_array(doc["C"], (3, 3), "$.C"),
        )

    rho = doc["rho"]
    _require(isinstance(rho, dict), "rho must be an object", "$.rho")
    for k in rho:
        _require(k in ("re", "im"), f"unknown key {k!r}", f"$.rho.{k}")
    _require("re" in rho, "missing key 're'", "$.rho.re")
    _require("im" in rho, "missing key 'im'", "$.rho.im")
    re = _real_array(rho["re"], (4, 4), "$.rho.re")
    im = _real_array(rho["im"], (4, 4), "$.rho.im")
    try:
        return from_density_matrix(re + 1j * im)
    except RepresentationError as exc:
        raise StateFileError(f"rho payload rejected: {exc}", location="$.rho") from None
