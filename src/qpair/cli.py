"""Command-line surface.

Every subcommand reads a StateFile (path argument, --input, or standard
input), computes one section of the full report, and prints a key-sorted
JSON document.  Reports carry the tool version and the options used, and
contain no timestamps, so a fixed input and seed reproduce the output
byte for byte.  Exit codes: 0 success, 2 the input parsed but the state
is invalid (or `check` judged it so), 1 anything that prevented a result.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict

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
    _det_entanglement,
    _spectrum,
    global_invariants,
    local_invariants,
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


def _finish(command, state, options, report, output, pretty, code=0):
    doc = {
        "command": command,
        "input": state_payload(state),
        "options": options,
        "report": report,
        "tool": _TOOL,
    }
    _write(dump_json(doc, pretty=pretty), output)
    sys.exit(code)


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


def _load(input_pos, input_opt):
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
    return parse_state(data)


def _margins(mapping):
    return {k: float(v) for k, v in mapping.items()}


def _complex_vector(v):
    return {"re": [float(x.real) for x in v], "im": [float(x.imag) for x in v]}


def _decomposition_payload(dec):
    return {
        "lambda": float(dec.lambda_),
        "sep": state_payload(dec.sep),
        "pure": None if dec.pure is None else _complex_vector(dec.pure),
        "margins": _margins(dec.margins),
        "objective_history": [[int(i), float(l)] for i, l in dec.objective_history],
    }


def _family_payload(state, tol, rank):
    method, data, _ = _route(state, tol)
    if method == "ClosedFormWernerFirst":
        if float(np.max(np.abs(state.C))) <= tol:
            return {"name": "chaotic"}
        form = diagonalize_cross(state)
        c = form.c
        if float(c[0] - c[2]) <= FAMILY_EDGE and form.sign < 0:
            x = float(np.mean(c))
            if x >= 1.0 - FAMILY_EDGE:
                return {"name": "bell"}
            return {"name": "werner", "x": x}
        return {
            "name": "werner_first",
            "sign": float(form.sign),
            "c": [float(v) for v in c],
        }
    if rank.pure:
        return {"name": "generic_pure", "p": float(np.linalg.norm(state.s))}
    if method == "ClosedFormWernerSecond":
        return {"name": "werner_second", "x": data[0], "p": data[1]}
    if method == "ClosedFormRank2":
        return {"name": "rank_two", **asdict(data)}
    return None


def _common(fn):
    fn = click.argument("input_pos", required=False, metavar="[INPUT]")(fn)
    fn = click.option("--input", "input_opt", metavar="PATH", help="StateFile path ('-' for stdin).")(fn)
    fn = click.option("--output", metavar="PATH", help="Write the report here instead of stdout.")(fn)
    fn = click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, help="Classification tolerance.")(fn)
    fn = click.option("--pretty", is_flag=True, help="Indent the JSON output.")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="qpair")
def main():
    """Two-qubit states as Pauli vectors and a cross dyadic."""


@main.command()
@_common
@_guarded
def check(input_pos, input_opt, output, tol, pretty):
    """Validity verdict: is the parameter set a physical state?"""
    state = _load(input_pos, input_opt)
    verdict = is_state(state, tol)
    report = {
        "valid": bool(verdict.decision),
        "margins": _margins(verdict.margins),
        "method": verdict.method,
    }
    _finish(
        "check", state, {"tol": tol}, report, output, pretty,
        code=0 if verdict.decision else 2,
    )


@main.command()
@_common
@_guarded
def invariants(input_pos, input_opt, output, tol, pretty):
    """Local and global invariants, detE, Spur|C|, and the spectrum."""
    state = _load(input_pos, input_opt)
    loc = local_invariants(state)
    glob = global_invariants(loc)
    spec = _spectrum(state, glob)
    report = {
        "local": asdict(loc),
        "global": asdict(glob),
        "det_E": _det_entanglement(state, loc),
        "trace_modulus": trace_modulus(state.C),
        "spectrum": {
            "kappa": [float(k) for k in spec.kappa],
            "eigenvalues": [float(e) for e in spec.eigenvalues],
        },
    }
    _finish("invariants", state, {"tol": tol}, report, output, pretty)


@main.command()
@_common
@_guarded
def classify(input_pos, input_opt, output, tol, pretty):
    """Entanglement, separability, rank, and family detection."""
    state = _load(input_pos, input_opt)
    separable = is_separable(state, tol)  # raises ValidityError on an invalid state
    rank = purity_rank(state, tol)
    report = {
        "valid": True,
        "validity_margins": _margins(is_state(state, tol).margins),
        "entangled": bool(is_entangled(state, tol)),
        "separable": bool(separable.decision),
        "separability_margins": _margins(separable.margins),
        **asdict(rank),
        "family": _family_payload(state, tol, rank),
    }
    _finish("classify", state, {"tol": tol}, report, output, pretty)


@main.command()
@_common
@_guarded
def canonical(input_pos, input_opt, output, tol, pretty):
    """Canonical form; generic-form parameters for pure and rank-2 states."""
    state = _load(input_pos, input_opt)
    form = diagonalize_cross(state)
    report = {
        "O_ee": [[float(x) for x in row] for row in form.o_ee],
        "O_nn": [[float(x) for x in row] for row in form.o_nn],
        "c": [float(x) for x in form.c],
        "sign": float(form.sign),
    }
    rank = purity_rank(state, tol)
    if rank.pure:
        report["pure"] = {"p": pure_canonical(state, tol)}
    elif rank.rank == 2:
        report["rank2"] = asdict(rank2_canonical(state, tol))
    _finish("canonical", state, {"tol": tol}, report, output, pretty)


def _inert_search_options(fn):
    """--restarts/--seed: still accepted and echoed in options, with no effect."""
    for name, default in (("--seed", 0), ("--restarts", 64)):
        fn = click.option(
            name, type=int, default=default, show_default=True,
            help="No effect (the optimizer is deterministic); echoed in options.",
        )(fn)
    return fn


@main.command(name="degree")
@_common
@_inert_search_options
@_guarded
def degree_cmd(input_pos, input_opt, output, tol, pretty, restarts, seed):
    """Degree of separability with the route that produced it."""
    state = _load(input_pos, input_opt)
    result = degree(state, tol=tol)
    report = {
        "S": float(result.S),
        "method": result.method,
        "family_data": None if result.family_data is None else {
            k: (None if v is None else (v if isinstance(v, (str, int)) else float(v)))
            for k, v in result.family_data.items()
        },
        "decomposition": None
        if result.decomposition is None
        else _decomposition_payload(result.decomposition),
    }
    _finish(
        "degree", state, {"tol": tol, "restarts": restarts, "seed": seed},
        report, output, pretty,
    )


@main.command()
@_common
@_inert_search_options
@_guarded
def decompose(input_pos, input_opt, output, tol, pretty, restarts, seed):
    """Best separable-plus-pure split: exact at rank 2, an interior-point SDP at ranks 3-4."""
    state = _load(input_pos, input_opt)
    dec = ls_optimize(state, tol=tol)
    _finish(
        "decompose", state, {"tol": tol, "restarts": restarts, "seed": seed},
        _decomposition_payload(dec), output, pretty,
    )


@main.command()
@_common
@_guarded
def expectations(input_pos, input_opt, output, tol, pretty):
    """The minimal set of five measurements and their 15 values."""
    state = _load(input_pos, input_opt)
    table = table_of_five(state)
    rows = [
        {"setting": name, "values": {key: value for key, value in values}}
        for name, values in table.rows
    ]
    _finish("expectations", state, {"tol": tol}, {"rows": rows}, output, pretty)


_FAMILY_ARITY = {
    "chaotic": (Chaotic, ()),
    "bell": (Bell, ()),
    "werner": (Werner, ("x",)),
    "werner_first": (WernerFirst, ("sign", "c1", "c2", "c3")),
    "werner_second": (WernerSecond, ("x", "p")),
    "generic_pure": (GenericPure, ("p",)),
    "rank_two": (RankTwo, ("gamma1", "gamma2", "x1", "x2", "x3")),
}


@main.command(name="random")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--rank", type=int, default=None, help="Target rank for sampling (1..4).")
@click.option("--family", "family_name", default=None,
              help=f"Exact family member: one of {', '.join(sorted(_FAMILY_ARITY))}.")
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
    if family_name is not None and family_name not in _FAMILY_ARITY:
        raise ValueError(
            f"unknown family {family_name!r}; choose from "
            f"{', '.join(sorted(_FAMILY_ARITY))}"
        )
    if family_name is None:
        if params is not None:
            raise ValueError("--params needs --family")
        state = random_state(seed, target_rank=rank)
    else:
        if rank is not None:
            raise ValueError("--rank and --family are mutually exclusive")
        cls, names = _FAMILY_ARITY[family_name]
        values = []
        if params:
            values = [float(v) for v in params.split(",")]
        if len(values) != len(names):
            raise ValueError(
                f"family {family_name!r} needs --params with {len(names)} "
                f"value(s): {', '.join(names) or '(none)'}"
            )
        if family_name == "rank_two":
            spec = RankTwo(Rank2Params(*values))
        else:
            spec = cls(*values)
        state = construct_family(spec)
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
