"""Command-line interface: exit codes, report envelopes, reproducibility.

Most cases drive the click group in process through CliRunner; a few
run the ``qpair`` console script's target, as bound in ``[project.scripts]``
of ``pyproject.toml``, in a fresh interpreter on the qpair package under
test: for the pipeline contract, for the usage-error remap that only the
entry point does, and for reports that must not depend on what ran before
them in-process; one runs ``python -m qpair.cli`` against the console script.
No install is needed.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qpair.classify
import qpair.invariants
import qpair.state
from qpair import (
    Chaotic,
    GenericPure,
    TwoQubitState,
    Werner,
    WernerSecond,
    construct_family,
    det_entanglement,
    from_density_matrix,
    global_invariants,
    local_invariants,
    mix,
    parse_state,
    product_state,
    random_state,
    serialize_state,
    to_density_matrix,
    trace_modulus,
)
from qpair.cli import main
from qpair.io import state_payload

from conftest import count_calls

# Pauli payload of the minus-sign state with c = (0.8, 0.5, 0.2), which no
# constructor will emit: its minimum eigenvalue is -0.025.
_INVALID_DOC = json.dumps(
    {
        "format": "qpair-state/1",
        "s": [0.0, 0.0, 0.0],
        "t": [0.0, 0.0, 0.0],
        "C": [[-0.8, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.2]],
    }
)


def _invoke(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin)


def _run_console_script(*args, stdin=None):
    """Run what the installed ``qpair`` script would run, in a fresh
    interpreter that inherits this environment and so the same qpair.

    The target is read from ``[project.scripts]`` (``tomllib`` is stdlib
    only from Python 3.11), so a rebinding of the script is followed here.
    """
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    module, func = re.search(r'^qpair\s*=\s*"([\w.]+):(\w+)"$', section.group(1), re.M).groups()
    return subprocess.run(
        [sys.executable, "-c", f"from {module} import {func}; {func}()", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def _report(result):
    doc = json.loads(result.output)
    assert sorted(doc) == ["command", "input", "options", "report", "tool"]
    assert doc["tool"]["name"] == "qpair"
    return doc["report"]


def _error(result):
    doc = json.loads(result.output)
    assert sorted(doc) == ["error", "tool"]
    return doc["error"]


def _approx_tree(a, b, tol=1e-9):
    """Equality up to float rounding: the rho payload reconstructs the Pauli
    components through sums of products, so last-ulp differences are expected.
    """
    if isinstance(a, dict):
        return sorted(a) == sorted(b) and all(_approx_tree(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_approx_tree(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return bool(abs(a - b) <= tol * (1.0 + abs(a) + abs(b)))
    return a == b


def _statefile(state):
    return serialize_state(state)


def test_check_valid_state_exits_zero():
    result = _invoke(["check", "-"], stdin=_statefile(construct_family(Werner(0.5))))
    assert result.exit_code == 0
    report = _report(result)
    assert report["valid"] is True
    assert report["method"] == "Both"
    assert report["margins"]["min_eigenvalue"] == pytest.approx(0.125)


def test_check_invalid_state_exits_two_with_margins():
    result = _invoke(["check", "-"], stdin=_INVALID_DOC)
    assert result.exit_code == 2
    report = _report(result)
    assert report["valid"] is False
    margins = report["margins"]
    assert margins["min_eigenvalue"] == pytest.approx(-0.025, abs=1e-12)
    assert margins["quartic_value"] == pytest.approx(-0.1375, abs=1e-12)


# s = t = 0 with C = diag(0.8, 0.5, 0.2): minimum eigenvalue (1 - 1.5)/4
_INVALID_PLUS_DOC = json.dumps(
    {
        "format": "qpair-state/1",
        "s": [0.0, 0.0, 0.0],
        "t": [0.0, 0.0, 0.0],
        "C": [[0.8, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]],
    }
)


@pytest.mark.parametrize("command", ["classify", "canonical", "degree", "decompose"])
def test_commands_needing_a_state_exit_two_on_an_invalid_one(command):
    result = _invoke([command, "-"], stdin=_INVALID_PLUS_DOC)
    assert result.exit_code == 2
    error = _error(result)
    assert error["type"] == "ValidityError"
    assert error["min_eigenvalue"] == pytest.approx(-0.125, abs=1e-12)


_REPORT_COMMANDS = ["check", "invariants", "classify", "canonical", "degree", "decompose", "expectations"]
_SEARCH_COMMANDS = {"degree", "decompose"}


@pytest.mark.parametrize("command", _REPORT_COMMANDS)
def test_every_report_command_prints_the_envelope(command):
    statefile = _statefile(construct_family(Werner(0.5)))
    result = _invoke([command], stdin=statefile)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert sorted(doc) == ["command", "input", "options", "report", "tool"]
    assert doc["command"] == command
    assert doc["input"] == state_payload(parse_state(statefile))
    expected = {"tol": 1e-9}
    if command in _SEARCH_COMMANDS:
        expected.update(restarts=64, seed=0)
    assert doc["options"] == expected


# what each report command does with a parameter set that is not a state:
# check reports the verdict, invariants and expectations are defined for
# any parameter set, and the rest need a state
_ON_INVALID = {
    "check": (2, "report"),
    "invariants": (0, "report"),
    "classify": (2, "ValidityError"),
    "canonical": (2, "ValidityError"),
    "degree": (2, "ValidityError"),
    "decompose": (2, "ValidityError"),
    "expectations": (0, "report"),
}


@pytest.mark.parametrize("command", _REPORT_COMMANDS)
def test_every_report_command_answers_an_invalid_state(command):
    code, kind = _ON_INVALID[command]
    result = _invoke([command, "-"], stdin=_INVALID_DOC)
    assert result.exit_code == code
    if kind == "report":
        report = _report(result)
        if command == "check":
            assert report["valid"] is False
    else:
        error = _error(result)
        assert error["type"] == kind
        assert error["min_eigenvalue"] == pytest.approx(-0.025, abs=1e-12)


@pytest.mark.parametrize("command", _REPORT_COMMANDS)
def test_every_report_command_rejects_a_malformed_file(command, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "qpair-state/1", "s": [0.0, 0.0', encoding="utf-8")
    result = _invoke([command, str(path)])
    assert result.exit_code == 1
    error = _error(result)
    assert error["type"] == "StateFileError"
    assert "malformed JSON" in error["message"]
    assert "line 1" in error["location"]


def test_help_lists_every_subcommand_with_its_summary():
    summaries = {
        "canonical": "Canonical form; generic-form parameters for pure and rank-2 states.",
        "check": "Validity verdict: is the parameter set a physical state?",
        "classify": "Entanglement, separability, rank, and family detection.",
        "decompose": "Best separable-plus-pure split: exact at rank 2, an interior-point SDP at ranks 3-4.",
        "degree": "Degree of separability with the route that produced it.",
        "expectations": "The minimal set of five measurements and their 15 values.",
        "invariants": "Local and global invariants, detE, Spur|C|, and the spectrum.",
        "random": "Emit a StateFile: seeded random, or an exact family member.",
    }
    result = _invoke(["--help"])
    assert result.exit_code == 0
    listing = result.output.split("Commands:\n", 1)[1]
    shown = dict(line.strip().split(None, 1) for line in listing.splitlines() if line.strip())
    assert sorted(shown) == sorted(summaries)
    for name, summary in shown.items():
        assert summary.removesuffix("...").strip()
        assert summaries[name].startswith(summary.removesuffix("...")), name


def test_degree_werner_half_closed_form():
    result = _invoke(["degree", "-"], stdin=_statefile(construct_family(Werner(0.5))))
    assert result.exit_code == 0
    report = _report(result)
    assert report["method"] == "ClosedFormWernerFirst"
    assert report["S"] == pytest.approx(0.75, abs=1e-12)


def test_random_bell_classify_pipeline():
    emitted = _invoke(["random", "--seed", "7", "--family", "bell"])
    assert emitted.exit_code == 0
    result = _invoke(["classify", "-"], stdin=emitted.output)
    assert result.exit_code == 0
    report = _report(result)
    assert report["entangled"] is True
    assert report["separable"] is False
    assert report["rank"] == 1
    assert report["family"] == {"name": "bell"}


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--family", "chaotic"], {"name": "chaotic"}),
        (["--family", "werner", "--params", "0.6"], {"name": "werner", "x": 0.6}),
        (
            ["--family", "werner_first", "--params", "-1,0.5,0.3,0.1"],
            {"name": "werner_first", "sign": -1.0, "c": [0.5, 0.3, 0.1]},
        ),
        (
            ["--family", "generic_pure", "--params", "0.6"],
            {"name": "generic_pure", "p": 0.6},
        ),
        (
            ["--family", "werner_second", "--params", "0.9,0.4"],
            {"name": "werner_second", "x": 0.9, "p": 0.4},
        ),
        (["--family", "bell"], {"name": "bell"}),
        (
            ["--family", "rank_two", "--params", "1.1,0.7,0.3,0.25,0.4"],
            {"name": "rank_two", "gamma1": 1.1, "gamma2": 0.7, "x1": 0.3, "x2": 0.25, "x3": 0.4},
        ),
    ],
)
def test_classify_detects_family(args, expected):
    emitted = _invoke(["random", *args])
    assert emitted.exit_code == 0
    report = _report(_invoke(["classify", "-"], stdin=emitted.output))
    family = report["family"]
    assert family["name"] == expected["name"]
    for key, value in expected.items():
        if key == "name":
            continue
        assert family[key] == pytest.approx(value)


_Z = [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "state, tol, projections",
    [
        # the mixing weight x = 5e-10 is chaos at FAMILY_EDGE: declined before any projector
        (construct_family(WernerSecond(5e-10, 0.5)), "1e-12", 0),
        # the pure part |00> is a product, p = 1: declined after both projectors
        (mix([construct_family(Chaotic()), product_state(_Z, _Z)], [0.6, 0.4]), "1e-9", 2),
    ],
    ids=["x_at_the_edge", "p_at_one"],
)
def test_classify_declines_chaos_plus_pure_at_the_family_edges(state, tol, projections, monkeypatch):
    calls = count_calls(monkeypatch, qpair.state, "pure_projector")
    result = _invoke(["classify", "-", "--tol", tol], stdin=_statefile(state))
    assert result.exit_code == 0
    assert _report(result)["family"] is None
    assert len(calls) == projections


def test_invariants_report_matches_the_library():
    emitted = _invoke(["random", "--seed", "3"])
    state = parse_state(emitted.output)
    report = _report(_invoke(["invariants", "-"], stdin=emitted.output))
    loc = local_invariants(state)
    assert report["local"] == dataclasses.asdict(loc)
    glo = global_invariants(loc)
    assert report["global"] == {"A0": glo.A0, "A1": glo.A1, "A2": glo.A2}
    lam = np.asarray(report["spectrum"]["eigenvalues"])
    kappa = np.asarray(report["spectrum"]["kappa"])
    assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(kappa, 1.0 - 4.0 * lam, atol=1e-12)
    assert report["det_E"] == det_entanglement(state)
    assert report["trace_modulus"] == trace_modulus(state.C)


def test_invariants_report_derives_the_local_invariants_once(monkeypatch):
    # the report asks local_invariants, spectrum and det_entanglement in
    # turn; the slot evaluates the invariants for the first and serves the rest
    emitted = _invoke(["random", "--seed", "3"])
    calls = count_calls(monkeypatch, qpair.invariants, "_evaluate_invariants")
    result = _invoke(["invariants", "-"], stdin=emitted.output)
    assert result.exit_code == 0
    assert len(calls) == 1


_RANK2_ARGS = ["random", "--family", "rank_two", "--params", "1.1,0.7,0.3,0.25,0.4"]
_RANK4_ARGS = ["random", "--seed", "3"]
_WERNER_ARGS = ["random", "--family", "werner", "--params", "0.5"]


@pytest.mark.parametrize(
    "emit, command, passes",
    [
        (_RANK4_ARGS, "degree", 1),
        (["random", "--seed", "1", "--rank", "3"], "degree", 1),
        # the rank-2 cases keep the ids they had when the rank-2 frame ran
        # its own positivity pass, so the case names stay stable
        pytest.param(_RANK2_ARGS, "degree", 1, id="emit2-degree-2"),
        (_WERNER_ARGS, "degree", 1),
        (_RANK4_ARGS, "decompose", 1),
        (_RANK2_ARGS, "decompose", 1),
        (_WERNER_ARGS, "decompose", 1),
        # the canonical and classify cases keep the ids of the pass counts
        # they had before the slot, so the case names stay stable
        pytest.param(_RANK2_ARGS, "canonical", 1, id="emit7-canonical-2"),
        pytest.param(
            ["random", "--family", "generic_pure", "--params", "0.35"], "canonical", 1,
            id="emit8-canonical-2",
        ),
        (_RANK4_ARGS, "canonical", 1),
        # classify asks each public decider in turn: is_separable,
        # purity_rank, is_state and is_entangled; the first evaluates the
        # positivity pass and the slot serves the other three, and the
        # rank-2 frame runs on _route's eigh
        pytest.param(_RANK2_ARGS, "classify", 1, id="emit10-classify-5"),
        pytest.param(_RANK4_ARGS, "classify", 1, id="emit11-classify-4"),
    ],
)
def test_commands_decide_validity_in_the_library_only(emit, command, passes, monkeypatch):
    # one positivity pass per command: the library's own precondition (the
    # separability decision, or purity_rank ahead of the rank-2 and pure
    # canonical forms) evaluates it, every later question about the same
    # state reads it from the slot, and the CLI adds none of its own
    emitted = _invoke(emit)
    calls = count_calls(monkeypatch, qpair.classify, "_positivity_pass")
    result = _invoke([command, "-"], stdin=emitted.output)
    assert result.exit_code == 0
    assert len(calls) == passes


def test_canonical_reports_pure_parameters():
    emitted = _invoke(["random", "--family", "generic_pure", "--params", "0.35"])
    report = _report(_invoke(["canonical", "-"], stdin=emitted.output))
    assert report["pure"]["p"] == pytest.approx(0.35, abs=1e-9)
    assert report["sign"] == -1.0
    q = np.sqrt(1.0 - 0.35**2)
    assert report["c"] == pytest.approx([1.0, q, q], abs=1e-9)


def test_canonical_reports_rank2_parameters():
    emitted = _invoke(
        ["random", "--family", "rank_two", "--params", "0.9,0.4,0.2,-0.3,0.1"]
    )
    report = _report(_invoke(["canonical", "-"], stdin=emitted.output))
    par = report["rank2"]
    assert par["gamma1"] == pytest.approx(0.9, abs=1e-9)
    assert par["gamma2"] == pytest.approx(0.4, abs=1e-9)
    assert par["x1"] == pytest.approx(0.2, abs=1e-9)


def test_decompose_reassembles_the_input():
    statefile = _statefile(construct_family(Werner(0.5)))
    result = _invoke(
        ["decompose", "-", "--restarts", "4", "--seed", "1"], stdin=statefile
    )
    assert result.exit_code == 0
    report = _report(result)
    lam = report["lambda"]
    assert lam == pytest.approx(0.75, abs=1e-8)
    sep = TwoQubitState(
        np.asarray(report["sep"]["s"]),
        np.asarray(report["sep"]["t"]),
        np.asarray(report["sep"]["C"]),
    )
    amp = np.asarray(report["pure"]["re"]) + 1j * np.asarray(report["pure"]["im"])
    assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-9)
    rho = lam * to_density_matrix(sep) + (1.0 - lam) * np.outer(amp, amp.conj())
    target = to_density_matrix(parse_state(statefile))
    assert np.max(np.abs(rho - target)) < 1e-7
    history = report["objective_history"]
    assert [stage for stage, _ in history] == list(range(len(history)))
    values = [value for _, value in history]
    assert values == sorted(values)
    assert min(report["margins"].values()) > -1e-8


def test_tol_reaches_every_route():
    # Each state passes the command's own check only at the --tol given
    # (invalid, or not pure, at 1e-9); every inner call decides at that
    # same --tol instead of failing at the default.
    shifted_werner = TwoQubitState(
        s=np.zeros(3), t=np.zeros(3), C=-1.000004 * np.eye(3)
    )
    # diagonal, hence separable, with one population at -1e-6
    classical = from_density_matrix(np.diag([0.4, 0.3, 0.300001, -1e-6]))
    pure = to_density_matrix(construct_family(GenericPure(0.4)))
    nearly_pure = from_density_matrix((1.0 - 1e-7) * pure + 1e-7 * np.eye(4) / 4.0)
    for command, tol, state in (
        ("degree", "1e-3", shifted_werner),
        ("decompose", "1e-3", classical),
        ("canonical", "1e-6", nearly_pure),
    ):
        result = _invoke([command, "-", "--tol", tol], stdin=_statefile(state))
        assert result.exit_code == 0, result.output
    assert _report(result)["pure"]["p"] == pytest.approx(0.4, abs=1e-6)


def test_werner_first_degree_is_clamped_at_a_loose_tol():
    # 3/2 - Spur|C|/2 = -6e-6 here; the state is valid only at --tol 1e-3
    shifted_werner = TwoQubitState(
        s=np.zeros(3), t=np.zeros(3), C=-1.000004 * np.eye(3)
    )
    result = _invoke(["degree", "-", "--tol", "1e-3"], stdin=_statefile(shifted_werner))
    assert result.exit_code == 0, result.output
    report = _report(result)
    assert report["method"] == "ClosedFormWernerFirst"
    assert report["S"] == 0.0


def test_decompose_accepts_a_negative_eigenvalue_within_tol():
    rho = to_density_matrix(random_state(0, target_rank=4))
    eigs, vecs = np.linalg.eigh(rho)
    shift = eigs[0] + 1e-6
    eigs = eigs + np.array([-shift, 0.0, 0.0, shift])
    state = from_density_matrix((vecs * eigs) @ vecs.conj().T)
    target = to_density_matrix(state)
    assert np.linalg.eigvalsh(target)[0] == pytest.approx(-1e-6, abs=1e-12)
    result = _invoke(["decompose", "-", "--tol", "1e-3"], stdin=_statefile(state))
    assert result.exit_code == 0, result.output
    report = _report(result)
    lam = report["lambda"]
    sep = TwoQubitState(
        np.asarray(report["sep"]["s"]),
        np.asarray(report["sep"]["t"]),
        np.asarray(report["sep"]["C"]),
    )
    amp = np.asarray(report["pure"]["re"]) + 1j * np.asarray(report["pure"]["im"])
    rebuilt = lam * to_density_matrix(sep) + (1.0 - lam) * np.outer(amp, amp.conj())
    assert np.max(np.abs(rebuilt - target)) <= 1e-12
    assert min(report["margins"].values()) >= -1e-5


def test_classify_and_degree_agree_on_near_zero_pauli_vectors():
    base = construct_family(Werner(0.8))
    statefile = _statefile(
        TwoQubitState(s=np.array([1e-10, 0.0, 0.0]), t=base.t, C=base.C)
    )
    family = _report(_invoke(["classify", "-"], stdin=statefile))["family"]
    assert family["name"] == "werner"
    assert family["x"] == pytest.approx(0.8, abs=1e-12)
    report = _report(_invoke(["degree", "-"], stdin=statefile))
    assert report["method"] == "ClosedFormWernerFirst"
    assert report["S"] == pytest.approx(0.3, abs=1e-9)


def test_expectations_reproduce_the_parameters():
    emitted = _invoke(["random", "--seed", "11"])
    state = parse_state(emitted.output)
    report = _report(_invoke(["expectations", "-"], stdin=emitted.output))
    rows = {row["setting"]: row["values"] for row in report["rows"]}
    assert list(rows) == ["xx", "yy", "zz", "cyclic", "anticyclic"]
    for k, axis in enumerate("xyz"):
        values = rows[axis + axis]
        assert values[f"sigma_{axis}"] == pytest.approx(state.s[k], abs=1e-12)
        assert values[f"tau_{axis}"] == pytest.approx(state.t[k], abs=1e-12)
        assert values[f"sigma_{axis} tau_{axis}"] == pytest.approx(
            state.C[k, k], abs=1e-12
        )
    assert rows["cyclic"]["sigma_x tau_y"] == pytest.approx(state.C[0, 1], abs=1e-12)
    assert rows["anticyclic"]["sigma_y tau_x"] == pytest.approx(
        state.C[1, 0], abs=1e-12
    )


def test_output_flag_writes_the_report_to_a_file(tmp_path):
    target = tmp_path / "report.json"
    result = _invoke(
        ["check", "-", "--output", str(target)],
        stdin=_statefile(construct_family(Werner(0.2))),
    )
    assert result.exit_code == 0
    assert result.output == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["report"]["valid"] is True


def test_pretty_flag_changes_layout_not_content():
    statefile = _statefile(construct_family(GenericPure(0.5)))
    compact = _invoke(["invariants", "-"], stdin=statefile)
    pretty = _invoke(["invariants", "-", "--pretty"], stdin=statefile)
    assert "\n " in pretty.output and "\n " not in compact.output
    assert json.loads(pretty.output) == json.loads(compact.output)


def test_input_file_and_positional_are_exclusive(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(_statefile(construct_family(Werner(0.1))), encoding="utf-8")
    result = _invoke(["check", str(path), "--input", str(path)])
    assert result.exit_code == 1
    error = _error(result)
    assert error["type"] == "StateFileError"
    assert error["location"] == "(arguments)"


def test_malformed_input_exits_one_with_location():
    result = _invoke(["classify", "-"], stdin="{oops")
    assert result.exit_code == 1
    error = _error(result)
    assert error["type"] == "StateFileError"
    assert "malformed JSON" in error["message"]
    assert "line 1" in error["location"]


@pytest.mark.parametrize("digits", [401, 5001])
def test_huge_integer_exits_one_with_location(digits):
    # too large for a float (401 digits) or past Python's int/str digit limit
    # (5001): either must give the error JSON, not a traceback with empty stdout
    doc = _statefile(construct_family(Werner(0.5))).replace('"s":[0.0', '"s":[' + "1" * digits, 1)
    result = _invoke(["check", "-"], stdin=doc)
    assert result.exit_code == 1
    error = _error(result)
    assert error["type"] == "StateFileError"
    assert error["location"] == "$.s[0]"
    assert "non-finite" in error["message"]


def test_missing_input_file_exits_one(tmp_path):
    result = _invoke(["check", str(tmp_path / "absent.json")])
    assert result.exit_code == 1
    assert _error(result)["type"] == "FileNotFoundError"


def test_reports_are_byte_identical_across_runs():
    statefile = _statefile(construct_family(Werner(0.5)))
    for args in (
        ["invariants", "-"],
        ["degree", "-", "--restarts", "2", "--seed", "9"],
        ["decompose", "-", "--restarts", "2", "--seed", "9"],
    ):
        first = _invoke(args, stdin=statefile)
        second = _invoke(args, stdin=statefile)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output


def test_rho_and_pauli_payloads_agree_up_to_the_echo():
    state = construct_family(GenericPure(0.7))
    rho = to_density_matrix(state)
    rho_doc = json.dumps(
        {
            "format": "qpair-state/1",
            "rho": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
        }
    )
    via_pauli = json.loads(_invoke(["classify", "-"], stdin=_statefile(state)).output)
    via_rho = json.loads(_invoke(["classify", "-"], stdin=rho_doc).output)
    assert _approx_tree(via_pauli["report"], via_rho["report"])


def test_random_is_seed_deterministic_and_respects_rank():
    first = _invoke(["random", "--seed", "5", "--rank", "2"])
    second = _invoke(["random", "--seed", "5", "--rank", "2"])
    assert first.output == second.output
    report = _report(_invoke(["classify", "-"], stdin=first.output))
    assert report["rank"] == 2
    other = _invoke(["random", "--seed", "6", "--rank", "2"])
    assert other.output != first.output


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["random", "--rank", "9"], "1..4"),
        (["random", "--family", "nosuch"], "unknown family"),
        (["random", "--params", "0.5"], "--params needs --family"),
        (["random", "--family", "werner", "--params", "0.5", "--rank", "2"], "mutually exclusive"),
        (["random", "--family", "werner"], "1 value(s)"),
        (["random", "--family", "werner", "--params", "0.3,0.4"], "1 value(s)"),
        (["random", "--family", "chaotic", "--params", "0.1"], "0 value(s)"),
    ],
)
def test_random_rejects_bad_requests(args, fragment):
    result = _invoke(args)
    assert result.exit_code == 1
    error = _error(result)
    assert error["type"] == "ValueError"
    assert fragment in error["message"]


def test_random_family_member_is_exact():
    result = _invoke(["random", "--family", "werner", "--params", "0.5"])
    assert result.exit_code == 0
    state = parse_state(result.output)
    assert np.array_equal(state.C, -0.5 * np.eye(3))
    assert np.array_equal(state.s, np.zeros(3))


def test_invalid_family_member_exits_two():
    result = _invoke(["random", "--family", "werner_first", "--params", "-1,0.8,0.5,0.2"])
    assert result.exit_code == 2
    error = _error(result)
    assert error["type"] == "ValidityError"
    assert error["min_eigenvalue"] == pytest.approx(-0.025, abs=1e-12)


def test_tol_is_echoed_in_options():
    result = _invoke(
        ["check", "-", "--tol", "1e-7"],
        stdin=_statefile(construct_family(Werner(0.3))),
    )
    doc = json.loads(result.output)
    assert doc["options"]["tol"] == 1e-7


def test_console_script_pipeline():
    emitted = _run_console_script("random", "--family", "werner", "--params", "0.5")
    assert emitted.returncode == 0
    result = _run_console_script("degree", "-", stdin=emitted.stdout)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["report"]["S"] == pytest.approx(0.75, abs=1e-12)
    assert doc["report"]["method"] == "ClosedFormWernerFirst"


def test_console_script_usage_error_exits_one():
    result = _run_console_script("--definitely-not-an-option")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["error"]["type"] == "NoSuchOption"


def test_module_entry_runs_the_console_script():
    # python -m qpair.cli runs the same entry point as the console script
    def run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "qpair.cli", *args], capture_output=True, text=True
        )

    emitted = run_module("random", "--family", "werner", "--params", "0.5")
    assert emitted.returncode == 0, emitted.stderr
    np.testing.assert_array_equal(parse_state(emitted.stdout).C, -0.5 * np.eye(3))
    result = run_module("--definitely-not-an-option")
    assert result.returncode == 1
    script = _run_console_script("--definitely-not-an-option")
    assert (result.stdout, result.returncode) == (script.stdout, script.returncode)


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_fresh_and_in_process_reports_agree_after_other_states(command, tmp_path):
    # a report may not depend on what ran before it in the same interpreter
    rank2, rank4 = tmp_path / "rank2.json", tmp_path / "rank4.json"
    rank2.write_text(_invoke(["random", "--family", "rank_two", "--params", "1.1,0.7,0.3,0.25,0.4"]).output)
    rank4.write_text(_invoke(["random", "--seed", "3"]).output)
    fresh = _run_console_script(command, str(rank2))
    assert fresh.returncode == 0, fresh.stderr
    for other in (rank4, rank2):
        assert _invoke(["degree", str(other)]).exit_code == 0
    result = _invoke([command, str(rank2)])
    assert result.exit_code == 0
    assert result.output == fresh.stdout


def test_decompose_prints_the_degree_s_as_its_lambda():
    # on the Optimizer route both commands run one split, so the numbers are one
    statefile = _invoke(["random", "--seed", "3"]).output
    report = _report(_invoke(["degree", "-"], stdin=statefile))
    assert report["method"] == "Optimizer"
    assert _report(_invoke(["decompose", "-"], stdin=statefile))["lambda"] == report["S"]


def test_stdin_is_the_default_input():
    statefile = _statefile(construct_family(Werner(0.5)))
    explicit = _invoke(["check", "-"], stdin=statefile)
    implicit = _invoke(["check"], stdin=statefile)
    assert implicit.exit_code == 0
    assert implicit.output == explicit.output


_IMPORT_PROBE = """
import json, sys
from click.testing import CliRunner
from qpair.cli import main

loaded = []

def call(args, stdin=None):
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exit_code == 0, result.output
    loaded.append([args, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
    return result.output

werner = call(["random", "--family", "werner", "--params", "0.7"])
rank2 = call(["random", "--family", "rank_two", "--params", "1.1,0.7,0.3,0.25,0.4"])
for command in ("check", "classify", "invariants", "degree"):
    call([command, "-"], werner)
call(["degree", "-"], call(["random", "--seed", "3", "--rank", "4"]))
for command in ("check", "classify", "degree"):
    call([command, "-"], rank2)
report = call(["canonical", "-"], rank2)
print(json.dumps(loaded))
print(report, end="")
"""


def test_no_cli_command_loads_scipy():
    # a fresh interpreter, so no module imported by the suite is preloaded; it
    # inherits this environment and so imports the qpair under test; the rank-2
    # calls reach the Nelder-Mead polish and the rotation-vector conversions,
    # which are qpair's own kernels
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, report = result.stdout.split("\n", 1)
    loaded = json.loads(loaded)
    assert len(loaded) == 12
    assert [(args, modules) for args, modules in loaded if modules] == []
    assert json.loads(report)["report"]["rank2"]["gamma1"] == pytest.approx(1.1, abs=1e-9)
