"""Digest a fixed corpus of ratiocert CLI documents, to compare two trees.

Each corpus command runs in-process through ratiocert.cli.main, against the
package under this checkout's src/.  Its stdout, with the wall_ms figures
blanked, is one document; the tool prints one line per document:

    <sha256 of the document>  <argv>

Run it in two checkouts and diff the outputs:

    python tools/docdigest.py > digests.txt
    python tools/docdigest.py --dump DIR   # also writes each document to DIR

Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ratiocert.cli import main  # noqa: E402

_CHECK = ["--direction", "decreasing", "--format", "json"]

CORPUS = [
    ["paper-suite", "--format", "json"],
    ["paper-suite", "--format", "text"],
    # below 64 start bits, so the recurrence constants start at the given precision
    ["paper-suite", "--start-bits", "16", "--format", "json"],
    # a cap at the start bits: checks the first rung leaves open end undecided
    ["paper-suite", "--precision-cap", "128", "--format", "json"],
    # prime ranges far past the default horizon
    ["paper-suite", "--prime-horizon", "20000", "--format", "json"],
    # no exact route: every Firoozbakht step starts on the first rung
    ["paper-suite", "--exact-budget", "0", "--format", "json"],
    ["check", "--seq", "fibonacci", "--from", "4", "--to", "400", "--jobs", "1", *_CHECK],
    ["check", "--seq", "fibonacci", "--from", "1", "--to", "400", "--jobs", "2", *_CHECK],
    ["check", "--seq", "product(fibonacci,derangement)", "--from", "2", "--to", "120",
     "--jobs", "1", *_CHECK],
    ["check", "--seq", "lucas:3,2", "--from", "90", "--to", "170", "--jobs", "1", *_CHECK],
    ["check", "--seq", "primes", "--from", "1", "--to", "600", "--jobs", "1", *_CHECK],
    ["check", "--seq", "squarefree-sum", "--from", "7", "--to", "600", "--jobs", "1", *_CHECK],
    ["check", "--seq", "fibonacci", "--from", "4", "--to", "20", *_CHECK],
    ["check", "--seq", "fibonacci", "--from", "4", "--to", "20", "--jobs", "2", *_CHECK],
    ["find-start", "--seq", "derangement", "--horizon", "80", "--direction", "decreasing",
     "--jobs", "1", "--format", "json"],
    ["table", "--seq", "fibonacci", "--from", "2", "--to", "20", "--format", "json"],
    ["table", "--seq", "harmonic:2", "--indices", "3,10,100,1000", "--bits", "64",
     "--format", "csv"],
    ["table", "--seq", "derangement", "--from", "2", "--to", "300", "--step", "7",
     "--format", "text"],
    # terms wider than the ln kernel's working precision, so it reads their top bits
    ["table", "--seq", "derangement", "--from", "2", "--to", "3000", "--step", "37",
     "--format", "json"],
    ["table", "--seq", "fibonacci", "--from", "1", "--to", "6000", "--step", "53",
     "--format", "json"],
    ["check", "--seq", "derangement", "--from", "3", "--to", "2000", "--jobs", "1", *_CHECK],
    # without --jobs, enough steps that the default forks a pool on two CPUs
    ["check", "--seq", "fibonacci", "--from", "4", "--to", "20000", *_CHECK],
    # near-ties on the window records: 139 steps undecided at the cap, then
    # 7 steps on the exact route and 379 that climb from a 16-bit first rung
    ["check", "--seq", "lucas:3,2", "--from", "1", "--to", "400", "--precision-cap", "256",
     "--exact-budget", "0", "--jobs", "1", *_CHECK],
    ["check", "--seq", "lucas:3,2", "--from", "1", "--to", "400", "--start-bits", "16",
     "--precision-cap", "1024", "--exact-budget", "3000", "--jobs", "1", *_CHECK],
    # each gap in the indices starts a run at a Lucas pair of a large index
    ["table", "--seq", "lucas:3,2", "--indices", "5,700,20000,20001", "--format", "json"],
    # both walking families as the leaves of one product
    ["check", "--seq", "product(harmonic:2,derangement)", "--from", "2", "--to", "80",
     "--jobs", "1", *_CHECK],
    # gaps and a restart on a walking family
    ["table", "--seq", "harmonic:3", "--indices", "3,4,50,200,201,7", "--format", "json"],
    # Fraction terms on the window records, and the longest int scan of scan-128
    ["check", "--seq", "harmonic:3", "--from", "3", "--to", "60", "--direction", "increasing",
     "--jobs", "1", "--format", "json"],
    ["check", "--seq", "squarefree-sum", "--from", "7", "--to", "6000", "--direction",
     "increasing", "--jobs", "1", "--format", "json"],
    # a pool of two: the product spec, the engine and the block reports cross pickle
    ["check", "--seq", "product(fibonacci,derangement)", "--from", "2", "--to", "120",
     "--jobs", "2", *_CHECK],
    ["find-start", "--seq", "derangement", "--horizon", "80", "--direction", "decreasing",
     "--jobs", "2", "--format", "json"],
    # near-ties deciding at 1024 and 2048 bits: from rung 3 on, a step reads the
    # rung below its neighbour's deciding rung first; each --jobs block starts afresh
    ["check", "--seq", "lucas:3,2", "--from", "1", "--to", "1500", "--jobs", "1", *_CHECK],
    ["check", "--seq", "lucas:3,2", "--from", "1", "--to", "1500", "--jobs", "2", *_CHECK],
    ["check", "--seq", "lucas:5,6", "--from", "1", "--to", "750", "--jobs", "1", *_CHECK],
    ["check", "--seq", "lucas:3,2", "--from", "1", "--to", "1500", "--start-bits", "16",
     "--precision-cap", "1000", "--exact-budget", "0", "--jobs", "1", *_CHECK],
]

_WALL_MS = re.compile(r'(wall_ms(?:": |: |=))\d+')


def document(argv: list[str]) -> str:
    """The command's stdout with its wall_ms figures blanked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return _WALL_MS.sub(r"\1", out.getvalue())


def run(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, help="also write each document to this directory")
    args = parser.parse_args(argv)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for i, cmd in enumerate(CORPUS):
        doc = document(cmd)
        if args.dump:
            (args.dump / f"{i:02d}-{cmd[0]}.txt").write_text(doc, encoding="utf-8")
        print(f"{hashlib.sha256(doc.encode()).hexdigest()}  {shlex.join(cmd)}", flush=True)


if __name__ == "__main__":
    run()
