"""StateFile round trips and the error contract of the parser.

Serialization must be byte-reproducible and lossless: floats go out in
shortest round-trip form, so parse(serialize(state)) is exact, not just
close.  Every parse error carries a location, either line/column for
syntax or a JSONPath-style pointer for structure.
"""

import json

import numpy as np
import pytest

from qpair import (
    FORMAT_TAG,
    StateFileError,
    parse_state,
    random_state,
    serialize_state,
    to_density_matrix,
)
from qpair.io import dump_json, state_payload


def test_round_trip_is_exact():
    for seed in range(25):
        state = random_state(seed)
        back = parse_state(serialize_state(state))
        assert np.array_equal(back.s, state.s)
        assert np.array_equal(back.t, state.t)
        assert np.array_equal(back.C, state.C)


def test_serialization_is_byte_reproducible():
    state = random_state(3)
    assert serialize_state(state) == serialize_state(state)
    assert serialize_state(state, pretty=True) == serialize_state(state, pretty=True)


def test_serialized_document_shape():
    state = random_state(1)
    doc = json.loads(serialize_state(state, metadata={"label": "test"}))
    assert doc["format"] == FORMAT_TAG
    assert len(doc["s"]) == 3
    assert len(doc["C"]) == 3 and len(doc["C"][0]) == 3
    assert doc["metadata"] == {"label": "test"}
    # compact form: sorted keys, no spaces, trailing newline
    text = serialize_state(state)
    assert text.endswith("\n")
    assert ": " not in text
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_parse_accepts_bytes():
    state = random_state(2)
    back = parse_state(serialize_state(state).encode("utf-8"))
    assert np.array_equal(back.s, state.s)


def test_rho_payload_matches_pauli_payload():
    state = random_state(4)
    m = to_density_matrix(state)
    doc = {
        "format": FORMAT_TAG,
        "rho": {"re": m.real.tolist(), "im": m.imag.tolist()},
    }
    back = parse_state(json.dumps(doc))
    assert np.allclose(back.s, state.s, atol=1e-13)
    assert np.allclose(back.t, state.t, atol=1e-13)
    assert np.allclose(back.C, state.C, atol=1e-13)


def _location_of(text):
    with pytest.raises(StateFileError) as excinfo:
        parse_state(text)
    return excinfo.value.location, str(excinfo.value)


def _doc(**overrides):
    base = json.loads(serialize_state(random_state(0)))
    base.update(overrides)
    for key, value in overrides.items():
        if value is None:
            del base[key]
    return json.dumps(base)


def test_parse_error_malformed_json():
    loc, msg = _location_of("{not json")
    assert loc.startswith("line 1 column")
    assert "malformed JSON" in msg


def test_parse_error_not_utf8():
    loc, msg = _location_of(b"\xff\xfe{}")
    assert loc == "$"
    assert "UTF-8" in msg


def test_parse_error_top_level_not_object():
    loc, _ = _location_of("[1, 2]")
    assert loc == "$"


def test_parse_error_format_tag():
    loc, msg = _location_of(_doc(format=None))
    assert loc == "$.format"
    assert "missing format" in msg
    loc, msg = _location_of(_doc(format="qpair-state/99"))
    assert loc == "$.format"
    assert "unknown format tag" in msg


def test_parse_error_unknown_key():
    loc, msg = _location_of(_doc(extra=1))
    assert loc == "$.extra"
    assert "unknown key" in msg


def test_parse_error_payload_rules():
    state = random_state(0)
    m = to_density_matrix(state)
    both = json.loads(serialize_state(state))
    both["rho"] = {"re": m.real.tolist(), "im": m.imag.tolist()}
    loc, msg = _location_of(json.dumps(both))
    assert loc == "$"
    assert "not both" in msg
    loc, msg = _location_of(json.dumps({"format": FORMAT_TAG}))
    assert loc == "$"
    assert "missing payload" in msg
    loc, msg = _location_of(_doc(t=None))
    assert loc == "$.t"
    assert "missing key" in msg


def test_parse_error_locations_inside_arrays():
    loc, msg = _location_of(_doc(s=[0.1, 0.2]))
    assert loc == "$.s"
    assert "3 entries" in msg
    loc, _ = _location_of(_doc(s=[0.1, "x", 0.3]))
    assert loc == "$.s[1]"
    loc, _ = _location_of(_doc(s=[0.1, True, 0.3]))
    assert loc == "$.s[1]"
    doc = json.loads(_doc())
    doc["C"][1][2] = float("nan")
    loc, msg = _location_of(json.dumps(doc).replace("NaN", "1e999"))
    # 1e999 parses to inf
    assert loc == "$.C[1][2]"
    assert "non-finite" in msg
    doc["C"][1] = [0.0, 0.0]
    loc, _ = _location_of(json.dumps(doc).replace("NaN", "0"))
    assert loc == "$.C[1]"


def test_parse_error_metadata():
    loc, msg = _location_of(_doc(metadata={"note": 5}))
    assert loc == "$.metadata.note"
    assert "strings" in msg
    loc, _ = _location_of(_doc(metadata=[1]))
    assert loc == "$.metadata"


def test_parse_error_bad_rho():
    m = np.eye(4) / 4.0
    m[0, 1] = 0.3  # not Hermitian
    doc = {"format": FORMAT_TAG, "rho": {"re": m.tolist(), "im": np.zeros((4, 4)).tolist()}}
    loc, msg = _location_of(json.dumps(doc))
    assert loc == "$.rho"
    assert "Hermitian" in msg
    doc = {"format": FORMAT_TAG, "rho": {"re": m.tolist()}}
    loc, msg = _location_of(json.dumps(doc))
    assert loc == "$.rho.im"
    doc = {"format": FORMAT_TAG, "rho": {"re": m.tolist(), "im": 0, "x": 1}}
    loc, msg = _location_of(json.dumps(doc))
    assert loc == "$.rho.x"
    doc = {"format": FORMAT_TAG, "rho": [1, 2]}
    loc, msg = _location_of(json.dumps(doc))
    assert loc == "$.rho"


def test_dump_json_rejects_nan():
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


def test_state_payload_plain_python():
    payload = state_payload(random_state(5))
    assert isinstance(payload["s"][0], float)
    assert isinstance(payload["C"][2][1], float)


def _doc_with_first_s(literal):
    """A valid StateFile whose s[0] is the given JSON number literal."""
    return _doc(s=[12345.0, 0.0, 0.0]).replace("12345.0", literal, 1)


def test_parse_error_integer_too_large_for_a_float():
    # float(10**401) overflows: the entry is non-finite, at its own location
    loc, msg = _location_of(_doc_with_first_s("1" * 401))
    assert loc == "$.s[0]"
    assert "non-finite" in msg


def test_parse_error_integer_beyond_the_digit_limit():
    # 5001 digits exceed Python's int/str conversion limit (4300 digits), which
    # json.loads enforces on an integer it converts to int
    loc, msg = _location_of(_doc_with_first_s("1" * 5001))
    assert loc == "$.s[0]"
    assert "non-finite" in msg


def test_parse_reads_integers_as_their_nearest_float():
    big = 2**63 + 12345
    text = _doc(s=[12345.0, 0.0, 0.0], t=[54321.0, 0.0, 0.0])
    state = parse_state(text.replace("12345.0", str(big)).replace("54321.0", "-0"))
    assert state.s[0] == float(big)
    # -0 is the integer zero, so it reads as +0.0, as float(int) gives
    assert state.t[0] == 0.0 and np.copysign(1.0, state.t[0]) == 1.0


def test_parse_error_nesting_too_deep():
    loc, msg = _location_of("[" * 100_000)
    assert loc == "$"
    assert "nested too deeply" in msg
