"""Replay of the benchmark's CLI reference, byte for byte.

``perfbench/reference/cli_cold.json`` records the exit code and stdout of
every call of the benchmark's ``cli_cold`` workload.  Replaying those calls
in process catches report drift in the tier-1 run, before the benchmark
does.  LAPACK results differ in the last bits across builds, so the replay
runs only where Python, numpy and scipy match the versions that recorded
the reference.  The StateFiles are built with the benchmark's own recipe
reader, which is only read here.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from qpair import serialize_state
from qpair.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_REFERENCE = json.loads((_PERFBENCH / "reference" / "cli_cold.json").read_text(encoding="utf-8"))
_BUILD = {
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
}

pytestmark = pytest.mark.skipif(
    _REFERENCE["generated_with"] != _BUILD,
    reason=f"reference recorded with {_REFERENCE['generated_with']}, running {_BUILD}",
)


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    root = tmp_path_factory.mktemp("cli_reference")
    paths = []
    for k, recipe in enumerate(_REFERENCE["files"]):
        path = root / f"state{k}.json"
        path.write_text(serialize_state(workloads.build_state(recipe)), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("group", _REFERENCE["groups"], ids=lambda g: g["name"])
def test_reference_calls_reproduce_exit_code_and_stdout(group, state_files):
    runner = CliRunner()
    mismatches = []
    for call in group["items"]:
        args = list(call["args"])
        if call.get("file") is not None:
            args.append(state_files[call["file"]])
        result = runner.invoke(main, args)
        want = call["answer"]
        if result.exit_code != want["code"] or result.stdout_bytes != want["stdout"].encode("utf-8"):
            mismatches.append((call["args"], call.get("file"), result.exit_code, result.output))
    assert not mismatches, f"{len(mismatches)} of {len(group['items'])} calls differ: {mismatches[:2]}"
