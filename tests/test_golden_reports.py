"""Report bytes as a check: every file each command line in the matrix writes
has the sha256 recorded in ``golden_reports.json``.

The matrix is the benchmark's command lines and a few more that reach other
paths (a variable exponent off the circle, an exit-3 square, every
``trig-random`` preset, a multiplier on infinity sets, a non-circle Carleson
scan, and at n = 512 every other preset form but the csv files), plus each
line of README's "Command line" block, each at seeds 0 and 7 in json and csv. It runs in one fresh process with one BLAS thread, set through
each of the benchmark's ``THREAD_VARS``: complex SVDs round differently under
more threads, so report bytes are reproducible only at a fixed thread count.

A change that moves report bytes on purpose regenerates the table with
``SIOLAB_REGENERATE_GOLDEN=1 python -m pytest -s tests/test_golden_reports.py``,
which prints each entry whose digests moved against the committed table
before it overwrites it, and says in its change notes which entries changed
and why. So does a numpy
or siolab version bump, since ``provenance`` records both.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import siolab.cli as cli

from test_readme import COMMANDS as README_COMMANDS

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TABLE = Path(__file__).with_name("golden_reports.json")
REGENERATE = "SIOLAB_REGENERATE_GOLDEN"

MATRIX = [shlex.split(line) for line in (
    "sio-check --curve ellipse:2,1 --n 2048",
    "sio-check --curve circle --n 4096",
    "norm --curve circle --n 4096 --exponent 2+abs(sin) --function abs-cos",
    "multiplier --p 2+abs(sin) --q 2 --symbol one-plus-cos2 --trials 24",
    "dichotomy --symbol monomial:1 --p 4 --q 2 --sizes 16,32,64,128,256,512 --aspect 8",
    "carleson --curve circle --n 4096",
    "sio-check --curve perturbed-circle:0.1,5 --n 2048 --exponent 2+abs(sin)",
    "sio-check --curve square --n 512",
    "norm --function trig-random:5",
    "multiplier --symbol trig-random:40",
    "dichotomy --symbol trig-random:3",
    "multiplier --n 512 --p step:3,inf --q step:2,inf --symbol one-plus-cos2",
    "carleson --curve ellipse:2,1",
    "norm --n 512 --exponent logsmooth:3,1 --function abs-cos",
    "norm --n 512 --exponent 1.5+2*abs(cos) --function abs-cos",
    "norm --n 512 --exponent inf --function abs-cos",
    "norm --n 512 --function one",
    "norm --n 512 --function const:1,-2",
    "norm --n 512 --function mode:3",
    "norm --n 512 --function indicator:-1,2",
    "norm --n 512 --function pole:0.5,0.5",
    "multiplier --n 512 --symbol cos",
    "multiplier --n 512 --symbol one",
    "multiplier --n 512 --symbol monomial:-2",
    "dichotomy --n 512 --symbol singular:-0.3 --sizes 16,32,64",
    "dichotomy --n 512 --symbol monomial:-2 --sizes 16,32,64",
)]
MATRIX += [argv for argv in README_COMMANDS if argv not in MATRIX]

SEEDS = (0, 7)
FORMATS = ("json", "csv")

# Runs each argv in a fresh working directory, so that whatever --out names
# lands inside it, and prints {argv: {"exit": code, "files": {path: sha256}}}.
SCRIPT = """
import contextlib, hashlib, io, json, os, sys, tempfile
from pathlib import Path
import siolab.cli as cli

table = {}
with tempfile.TemporaryDirectory() as root:
    for i, argv in enumerate(json.loads(sys.argv[1])):
        work = Path(root, str(i))
        work.mkdir()
        os.chdir(work)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        table[" ".join(argv)] = {"exit": code, "files": {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}}
    os.chdir(root)
print(json.dumps(table))
"""


def _run_matrix() -> dict:
    argvs = [[*argv, "--seed", str(seed), "--format", fmt]
             for argv in MATRIX for seed in SEEDS for fmt in FORMATS]
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(run.THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_every_report_file_has_its_recorded_digest():
    table = _run_matrix()
    golden = json.loads(TABLE.read_text())
    changed = sorted(key for key in golden.keys() | table.keys()
                     if golden.get(key) != table.get(key))
    if os.environ.get(REGENERATE):
        # name what moved before the table is overwritten
        for key in changed:
            print(f"moved: {key}")
        TABLE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
        return
    assert not changed, (
        f"{len(changed)} entries differ from {TABLE.name}, first {changed[:5]}; if the "
        f"bytes change on purpose, regenerate the table with {REGENERATE}=1")
