"""Command-line surface.

Every subcommand but `random`, which writes one, reads a StateFile (path
argument, --input, or standard input), computes one section of the full
report, and prints a key-sorted JSON document.  Reports carry the tool
version and the options used, and contain no timestamps, so a fixed input and
seed reproduce the output byte for byte.  Exit codes: 0 success; 2 the input
parsed but is not a state, which `check` reports and `classify`, `canonical`,
`degree` and `decompose` refuse (`invariants` and `expectations` answer any
parameter set); 1 anything that prevented a result.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, fields

import click
import numpy as np

from . import __version__
from ._tolerances import DEFAULT_TOL, FAMILY_EDGE
from .canonical import diagonalize_cross, pure_canonical, rank2_canonical
from .classify import is_entangled, is_separable, is_state, purity_rank
from .degree import _route, degree, ls_optimize
from .errors import QpairError, StateFileError, ValidityError
from .families import (
    Bell,
    Chaotic,
    GenericPure,
    Rank2Params,
    RankTwo,
    Werner,
    WernerFirst,
    WernerSecond,
    construct_family,
)
from .invariants import (
    det_entanglement,
    global_invariants,
    local_invariants,
    spectrum,
    trace_modulus,
)
from .io import dump_json, parse_state, serialize_state, state_payload
from .state import table_of_five, random_state

_TOOL = {"name": "qpair", "version": __version__}


def _write(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(code, exc, message=None, **extra):
    error = {"type": type(exc).__name__, "message": message or str(exc)}
    for key, value in extra.items():
        if value is not None:
            error[key] = value
    _write(dump_json({"error": error, "tool": _TOOL}), None)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StateFileError as exc:
            _fail(1, exc, location=exc.location)
        except ValidityError as exc:
            _fail(2, exc, min_eigenvalue=exc.min_eigenvalue)
        except (QpairError, ValueError, TypeError, OSError) as exc:
            _fail(1, exc)

    return wrapper


def _complex_vector(v):
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _decomposition_payload(dec):
    return {
        "lambda": dec.lambda_,
        "sep": state_payload(dec.sep),
        "pure": None if dec.pure is None else _complex_vector(dec.pure),
        "margins": dec.margins,
        "objective_history": dec.objective_history,
    }


def _family_payload(state, tol, rank):
    method, data, _ = _route(state, tol)
    if method == "ClosedFormWernerFirst":
        if np.max(np.abs(state.C)) <= tol:
            return {"name": "chaotic"}
        form = diagonalize_cross(state)
        c = form.c
        if c[0] - c[2] <= FAMILY_EDGE and form.sign < 0:
            x = np.mean(c)
            if x >= 1.0 - FAMILY_EDGE:
                return {"name": "bell"}
            return {"name": "werner", "x": x}
        return {
            "name": "werner_first",
            "sign": float(form.sign),
            "c": c.tolist(),
        }
    if rank.pure:
        return {"name": "generic_pure", "p": np.linalg.norm(state.s)}
    if method == "ClosedFormWernerSecond":
        return {"name": "werner_second", "x": data[0], "p": data[1]}
    if method == "ClosedFormRank2":
        return {"name": "rank_two", **asdict(data)}
    return None


@click.group()
@click.version_option(version=__version__, prog_name="qpair")
def main():
    """Two-qubit states as Pauli vectors and a cross dyadic."""


def _subcommand(name, search=False):
    """Register `build(state, tol)` as the report subcommand `name`.

    `build` returns the report, or `(report, exit_code)`.  The subcommand
    loads the StateFile, maps library errors to exit codes, and prints the
    report in its envelope with the options used.  `search` adds
    --restarts/--seed, still accepted and echoed with no effect.
    """
    params = [
        click.Option(["--pretty"], is_flag=True, help="Indent the JSON output."),
        click.Option(["--tol"], type=float, default=DEFAULT_TOL, show_default=True, help="Classification tolerance."),
        click.Option(["--output"], metavar="PATH", help="Write the report here instead of stdout."),
        click.Option(["--input", "input_opt"], metavar="PATH", help="StateFile path ('-' for stdin)."),
        click.Argument(["input_pos"], required=False, metavar="[INPUT]"),
    ]
    if search:
        params += [
            click.Option(
                [flag], type=int, default=default, show_default=True,
                help="No effect (the optimizer is deterministic); echoed in options.",
            )
            for flag, default in (("--restarts", 64), ("--seed", 0))
        ]

    def register(build):
        @_guarded
        def callback(input_pos, input_opt, output, tol, pretty, **inert):
            if input_pos and input_opt:
                raise StateFileError(
                    "state given both as argument and as --input", location="(arguments)"
                )
            source = input_opt or input_pos or "-"
            if source == "-":
                data = sys.stdin.buffer.read()
            else:
                with open(source, "rb") as fh:
                    data = fh.read()
            state = parse_state(data)
            result = build(state, tol)
            report, code = result if isinstance(result, tuple) else (result, 0)
            doc = {
                "command": name,
                "input": state_payload(state),
                "options": {"tol": tol, **inert},
                "report": report,
                "tool": _TOOL,
            }
            _write(dump_json(doc, pretty=pretty), output)
            sys.exit(code)

        return main.command(name, params=params, help=build.__doc__)(callback)

    return register


@_subcommand("check")
def check(state, tol):
    """Validity verdict: is the parameter set a physical state?"""
    verdict = is_state(state, tol)
    report = {
        "valid": verdict.decision,
        "margins": verdict.margins,
        "method": "Both",  # the invariant inequalities and the eigensolve decide every verdict
    }
    return report, 0 if verdict.decision else 2


@_subcommand("invariants")
def invariants(state, tol):
    """Local and global invariants, detE, Spur|C|, and the spectrum."""
    loc = local_invariants(state)
    spec = spectrum(state)
    return {
        "local": asdict(loc),
        "global": asdict(global_invariants(loc)),
        "det_E": det_entanglement(state),
        "trace_modulus": trace_modulus(state.C),
        "spectrum": {
            "kappa": spec.kappa.tolist(),
            "eigenvalues": spec.eigenvalues.tolist(),
        },
    }


@_subcommand("classify")
def classify(state, tol):
    """Entanglement, separability, rank, and family detection."""
    separable = is_separable(state, tol)  # raises ValidityError on an invalid state
    rank = purity_rank(state, tol)
    return {
        "valid": True,
        "validity_margins": is_state(state, tol).margins,
        "entangled": is_entangled(state, tol),
        "separable": separable.decision,
        "separability_margins": separable.margins,
        **asdict(rank),
        "family": _family_payload(state, tol, rank),
    }


@_subcommand("canonical")
def canonical(state, tol):
    """Canonical form; generic-form parameters for pure and rank-2 states."""
    form = diagonalize_cross(state)
    report = {
        "O_ee": form.o_ee.tolist(),
        "O_nn": form.o_nn.tolist(),
        "c": form.c.tolist(),
        "sign": float(form.sign),
    }
    rank = purity_rank(state, tol)
    if rank.pure:
        report["pure"] = {"p": pure_canonical(state, tol)}
    elif rank.rank == 2:
        report["rank2"] = asdict(rank2_canonical(state, tol))
    return report


@_subcommand("degree", search=True)
def degree_cmd(state, tol):
    """Degree of separability with the route that produced it."""
    result = degree(state, tol=tol)
    return {
        "S": result.S,
        "method": result.method,
        "family_data": result.family_data,
        "decomposition": None
        if result.decomposition is None
        else _decomposition_payload(result.decomposition),
    }


@_subcommand("decompose", search=True)
def decompose(state, tol):
    """Best separable-plus-pure split: exact at rank 2, an interior-point SDP at ranks 3-4."""
    return _decomposition_payload(ls_optimize(state, tol=tol))


@_subcommand("expectations")
def expectations(state, tol):
    """The minimal set of five measurements and their 15 values."""
    rows = [
        {"setting": name, "values": dict(values)}
        for name, values in table_of_five(state).rows
    ]
    return {"rows": rows}


_FAMILY_RECORDS = {
    "chaotic": Chaotic,
    "bell": Bell,
    "werner": Werner,
    "werner_first": WernerFirst,
    "werner_second": WernerSecond,
    "generic_pure": GenericPure,
    "rank_two": Rank2Params,
}


@main.command(name="random")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--rank", type=int, default=None, help="Target rank for sampling (1..4).")
@click.option("--family", "family_name", default=None,
              help=f"Exact family member: one of {', '.join(sorted(_FAMILY_RECORDS))}.")
@click.option("--params", default=None, help="Comma-separated family parameters.")
@click.option("--output", metavar="PATH", help="Write the StateFile here instead of stdout.")
@click.option("--pretty", is_flag=True, help="Indent the JSON output.")
@_guarded
def random_cmd(seed, rank, family_name, params, output, pretty):
    """Emit a StateFile: seeded random, or an exact family member."""
    # plain options validated here, not click types: a bad value is a
    # failure (exit 1), and exit 2 stays reserved for invalid states
    if rank is not None and not 1 <= rank <= 4:
        raise ValueError(f"--rank must be in 1..4, got {rank}")
    if family_name is not None and family_name not in _FAMILY_RECORDS:
        raise ValueError(
            f"unknown family {family_name!r}; choose from "
            f"{', '.join(sorted(_FAMILY_RECORDS))}"
        )
    if family_name is None:
        if params is not None:
            raise ValueError("--params needs --family")
        state = random_state(seed, target_rank=rank)
    else:
        if rank is not None:
            raise ValueError("--rank and --family are mutually exclusive")
        record = _FAMILY_RECORDS[family_name]
        names = [field.name for field in fields(record)]
        values = [float(v) for v in params.split(",")] if params else []
        if len(values) != len(names):
            raise ValueError(
                f"family {family_name!r} needs --params with {len(names)} "
                f"value(s): {', '.join(names) or '(none)'}"
            )
        member = record(*values)
        state = construct_family(RankTwo(member) if record is Rank2Params else member)
    _write(serialize_state(state, pretty=pretty), output)
    sys.exit(0)


def run():
    """Console entry point.

    click reports its own usage errors with exit code 2, which the report
    contract reserves for computed-invalid verdicts, so run outside
    standalone mode and remap them onto the generic failure path.
    """
    try:
        code = main.main(standalone_mode=False)
    except click.exceptions.NoArgsIsHelpError as exc:
        click.echo(exc.format_message())
        sys.exit(0)
    except click.ClickException as exc:
        _fail(1, exc, message=exc.format_message())
    except click.exceptions.Abort:
        sys.exit(1)
    sys.exit(code if isinstance(code, int) else 0)


if __name__ == "__main__":
    run()
