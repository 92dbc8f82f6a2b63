"""Every subcommand's output on small seeded inputs, pinned byte for byte.

The files under tests/golden_cli/ hold each case's exit code, stdout and
stderr as the command line prints them. Text and CSV output must match
exactly. A `--json` run must give the same records: the same keys in the
same order, each value printing through `format_cell` as the text output's
value (the JSON floats carry 17 digits, whose last bit may differ across
BLAS builds; the text prints 9).

To record the files again after a deliberate output change, run
`PYTHONPATH=src:tests python tests/test_cli_golden.py` from the repo root.
"""

import contextlib
import csv
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest

from ordmed import PointSet, data_path, write_instance
from ordmed.bench_io import format_cell
from ordmed.cli import main

from helpers import T1_COORDS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli"
PMED = str(data_path("pmed1.txt"))
DIP = ["--bootstrap", "100", "--seed", "5"]

# name -> argv; the instance files are t1.txt, ball.txt (m = 10) and
# uniform.txt (m = 9), named relative to the working directory
CASES = {
    "generate-ball": ["generate", "ball", "--m", "10", "--clusters", "3",
                      "--radius", "0.1", "--sep", "1", "--seed", "0"],
    "generate-uniform": ["generate", "uniform", "--m", "9", "--seed", "4"],
    "solve-t1": ["solve", "--instance", "t1.txt", "--weights", "center"],
    "solve-ball": ["solve", "--instance", "ball.txt", "--weights", "ksum:3"],
    "relax-bep": ["relax", "--instance", "ball.txt", "--weights", "median"],
    "relax-ot": ["relax", "--formulation", "ot", "--instance", "uniform.txt",
                 "--weights", "centdian:0.5", "--p", "2"],
    "certify-plain": ["certify", "--instance", "t1.txt", "--weights", "median"],
    "certify-strict": ["certify", "--strict", "--instance", "ball.txt",
                       "--weights", "median"],
    "certify-none": ["certify", "--instance", "t1.txt", "--weights", "center"],
    "clusterability": ["clusterability", "--instance", "ball.txt",
                       "--instance", "uniform.txt", "--instance", "t1.txt", *DIP],
    "experiment": ["experiment", "--instance", "t1.txt", "--instance", "ball.txt",
                   "--instance", "uniform.txt", "--weights", "median",
                   "--weights", "ksum:99", "--p", "2", *DIP],
    "experiment-pmed": ["experiment", "--pmed", PMED, "--subsample", "8",
                        "--weights", "center", "--p", "1", "--p", "3", *DIP],
}
TABLES = {"clusterability", "experiment"}


def make_inputs(directory) -> None:
    """Write t1.txt, ball.txt and uniform.txt into directory."""
    t1 = PointSet(np.array(T1_COORDS).reshape(-1, 1))
    write_instance(os.path.join(directory, "t1.txt"), points=t1, p=1)
    for name, argv in (("ball.txt", CASES["generate-ball"]),
                       ("uniform.txt", CASES["generate-uniform"])):
        assert main([*argv, "-o", os.path.join(directory, name)]) == 0


def run(argv) -> str:
    """main(argv)'s exit code, stdout and stderr as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def stdout_of(text: str) -> str:
    return text.partition("--- stdout\n")[2].partition("--- stderr\n")[0]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    make_inputs(directory)
    return directory


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run(CASES[name]) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [name for name in CASES if name.split("-")[0] != "generate"])
def test_json_matches_golden(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    text = stdout_of((GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))
    if name.split("-")[0] in TABLES:
        header, *rows = csv.reader(io.StringIO(text))
        want = [list(zip(header, row)) for row in rows]
    else:
        want = [[tuple(line.split(" ", 1)) for line in text.splitlines()]]
    got = [json.loads(line) for line in stdout_of(run([*CASES[name], "--json"])).splitlines()]
    assert [[(key, format_cell(value)) for key, value in rec.items()] for rec in got] == want


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        make_inputs(directory)
        os.chdir(directory)
        for case, argv in CASES.items():
            (GOLDEN / f"{case}.txt").write_text(run(argv), encoding="utf-8")
        os.chdir(here)
