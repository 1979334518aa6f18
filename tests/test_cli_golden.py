"""Frozen CLI transcripts: full stdout and exit code, compared byte for byte.

Each case's stdout lives in ``tests/golden/<name>.txt``.  After a change
that is meant to alter the output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cf2.cli import main

GOLDEN = Path(__file__).parent / "golden"
AB = ("--map", "a=z,b=z+1")
P_LONG_WORD = "101110101011101110111010101110101011101010111011"

# name -> (argv, exit code)
CASES = {
    "gen-p": (["gen", "--family", "P", "--w0", "", "--eps", "10", "--len", "64"], 0),
    "gen-g": (["gen", "--spec", "G u0=a v0=b ups=011", "--len", "64"], 0),
    "sigma": (["sigma", "--word", "10111010", "--count", "3"], 0),
    "cf-long": (["cf", "--word", P_LONG_WORD, "--prec", "64"], 0),
    "cf-short": (["cf", "--word", "ab", *AB, "--prec", "16"], 0),
    "tower-trace-p": (["tower-trace", "--family", "P", "--w0", "", "--eps", "10", "--steps", "6"], 0),
    "tower-trace-p-weighted": (["tower-trace", "--w0", "10", "--eps", "110", "--steps", "8"], 0),
    "tower-trace-g": (
        ["tower-trace", "--family", "G", "--u0", "a", "--v0", "b", "--ups", "101", *AB, "--steps", "3"], 0,
    ),
    "identities-valuation": (["identities", "--check", "valuation-bounds", "--verbose"], 0),
    "identities-all": (
        ["identities", "--all", "--trials", "3", "--max-word-len", "3", "--prec", "128", "--verbose"], 0,
    ),
    "relation-rational": (["relation", "--num", "1", "--den", "z+1", "--degx", "2", "--prec", "128"], 0),
    "relation-p": (["relation", "--spec", "P w0= eps=10", "--degx", "4", "--prec", "256"], 0),
    "relation-g": (["relation", "--spec", "G u0=a v0=b ups=11", *AB, "--degx", "4", "--prec", "256"], 0),
    "theorem1-eps10": (["theorem1", "--w0", "", "--eps", "10"], 0),
    "theorem1-eps0": (["theorem1", "--w0", "", "--eps", "0"], 0),
    "theorem1-w010-eps110": (["theorem1", "--w0", "10", "--eps", "110"], 0),
    "theorem1-eps110100": (["theorem1", "--w0", "", "--eps", "110100"], 0),
    "theorem1-eps1101000": (["theorem1", "--w0", "", "--eps", "1101000"], 0),
    "theorem1-eps11010000": (["theorem1", "--w0", "", "--eps", "11010000"], 0),
    "theorem2-ups1": (["theorem2", "--u0", "a", "--v0", "b", "--ups", "1", *AB], 0),
    "theorem2-ups0": (["theorem2", "--u0", "a", "--v0", "b", "--ups", "0", *AB], 0),
    "theorem2-ups011": (["theorem2", "--u0", "a", "--v0", "b", "--ups", "011", *AB], 0),
    "theorem2-ups10": (["theorem2", "--u0", "a", "--v0", "b", "--ups", "10", *AB], 2),
    "corollary-k2": (["corollary", "--w0", "", "--eps", "10", "--k", "2"], 0),
    "corollary-k4": (["corollary", "--w0", "", "--eps", "10", "--k", "4"], 0),
    "explore": (["explore-sigma-inv", "--degx", "2", "--degz", "8"], 0),
}
# the --help text of cf2 and of every subcommand freezes the CLI surface
SUBCOMMANDS = (
    "gen", "sigma", "cf", "tower-trace", "identities", "relation",
    "theorem1", "theorem2", "corollary", "explore-sigma-inv",
)
CASES["help"] = (["--help"], 0)
CASES.update({f"help-{cmd}": ([cmd, "--help"], 0) for cmd in SUBCOMMANDS})
HELP_COLUMNS = "80"  # argparse wraps help text to the terminal width


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


@pytest.fixture(autouse=True)
def _default_env(monkeypatch):
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    argv, code = CASES[name]
    assert run_cli(argv) == (code, (GOLDEN / f"{name}.txt").read_bytes())


def test_every_golden_file_has_a_case():
    # a transcript no case produces would never be compared or rewritten
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_out_file_matches_stdout(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"known bytes\n" * 1000)
    argv, code = CASES["theorem1-eps10"]
    got_code, stdout = run_cli(["--out", str(path), *argv])
    assert (got_code, stdout) == (code, b"")
    assert path.read_bytes() == (GOLDEN / "theorem1-eps10.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["sigma", "--word", "10", "--count", "-1"], None),
        (["cf", "--word", "abq", *AB], None),
        (CASES["theorem2-ups10"][0], "theorem2-ups10"),
    ],
)
def test_out_file_is_written_only_when_the_command_printed(tmp_path, argv, golden):
    # a refused input leaves the file as it was; one refused after its
    # config echo leaves exactly what it printed
    path = tmp_path / "out.txt"
    path.write_bytes(b"known bytes\n")
    assert run_cli(["--out", str(path), *argv]) == (2, b"")
    want = b"known bytes\n" if golden is None else (GOLDEN / f"{golden}.txt").read_bytes()
    assert path.read_bytes() == want


def run_module(argv):
    """Exit code and stdout of ``python -m cf2`` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src"), "COLUMNS": HELP_COLUMNS}
    proc = subprocess.run([sys.executable, "-m", "cf2", *argv], capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name, code", [("theorem1-eps10", 0), ("theorem2-ups10", 2)])
def test_module_entry_point_matches_golden(name, code):
    argv, want = CASES[name]
    assert want == code
    assert run_module(argv) == (code, (GOLDEN / f"{name}.txt").read_bytes())


def test_module_entry_point_exits_one_on_a_miss():
    code, out = run_module(["relation", "--spec", "P w0= eps=10", "--degx", "4", "--degz", "0", "--prec", "64"])
    assert code == 1
    assert out.decode().splitlines()[-1] == "relation none degX<=4 degZ=0 prec=64"


if __name__ == "__main__":
    os.environ["COLUMNS"] = HELP_COLUMNS
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in sorted(CASES.items()):
        got_code, out = run_cli(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.txt").write_bytes(out)
