"""The benchmark's workloads: their inputs, made from a seed.

A plan is plain data (dicts, lists, ints and strings), so the runner can
build it without importing ratiocert and pass it to a fresh interpreter.
The seed moves each window's end by at most 0.2% (not at all for the short
harmonic windows) and picks the steps that are checked against the
independent oracle.  The paper's statements that a scan must reproduce are
part of the plan (`violations`), never a stored copy of the program's output.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("scan-128", "near-tie", "primes", "cli")

# steps per scan (or instances per check family) compared with mpmath
SAMPLES = 16


def _jitter(rng: random.Random, base: int) -> int:
    # at most 0.2% either way: the cost of a step can grow steeply with n
    # (harmonic steps just under the exact-route threshold), so larger moves
    # would give different seeds different amounts of work
    d = base // 500
    return base - d + rng.randrange(2 * d + 1)


def _scan(rng: random.Random, seq: str, start: int, stop: int, direction: str,
          violations, oracle_bits: str = "fixed") -> dict:
    steps = range(start, stop - 1)
    sample = set(rng.sample(steps, min(SAMPLES, len(steps))))
    # a violation the paper states is always among the checked steps
    sample.update(violations or ())
    return {
        "seq": seq,
        "start": start,
        "stop": stop,
        "direction": direction,
        "violations": violations,
        "sample": sorted(sample),
        "oracle_bits": oracle_bits,
    }


def plan(workload: str, seed: int) -> dict:
    """Inputs of one round of `workload`; the same seed gives the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-128":
        # r_1 = 1 < r_2 = 2^(1/3) and r_3 < r_4, so from 1 the violations are
        # exactly [1, 3]; derangements fall from 3, harmonic(m) rises from 3
        h_stop = _jitter(rng, 60)
        return {"workload": workload, "scans": [
            _scan(rng, "fibonacci", 1, _jitter(rng, 5000), "decreasing", [1, 3]),
            _scan(rng, "derangement", 3, _jitter(rng, 2000), "decreasing", []),
            *(_scan(rng, f"harmonic:{m}", 3, h_stop, "increasing", [])
              for m in range(1, 11)),
            _scan(rng, "squarefree-sum", 7, _jitter(rng, 6000), "increasing", []),
        ]}
    if workload == "near-tie":
        # u_n = 2^n - 1 and u_n = 3^n - 2^n: each step is within about 2^-n of
        # a tie.  The paper states no monotone range for them, so `violations`
        # is None and every reported violation is checked against mpmath.
        return {"workload": workload, "scans": [
            _scan(rng, "lucas:3,2", 1, _jitter(rng, 1500), "decreasing", None, "2n"),
            _scan(rng, "lucas:5,6", 1, _jitter(rng, 750), "decreasing", None, "2n"),
        ]}
    if workload == "primes":
        lo = 10_000 + rng.randrange(20)
        firoozbakht = [lo, lo + 199]
        refinement = [5, _jitter(rng, 5000)]
        return {
            "workload": workload,
            "firoozbakht": firoozbakht,
            "firoozbakht_sample": sorted(
                rng.sample(range(firoozbakht[0], firoozbakht[1] + 1), SAMPLES)),
            "refinement": refinement,
            "refinement_sample": sorted(
                rng.sample(range(refinement[0], refinement[1] + 1), SAMPLES)),
        }
    stop = _jitter(rng, 5000)
    return {
        "workload": workload,
        "check": ["check", "--seq", "fibonacci", "--from", "4", "--to", str(stop),
                  "--direction", "decreasing", "--format", "json"],
        "suite": ["paper-suite", "--prime-horizon", str(_jitter(rng, 2000)),
                  "--format", "json"],
    }


def cli_commands(p: dict) -> list[list[str]]:
    return [p["suite"], p["check"]]


def scan_steps(scan: dict) -> int:
    return scan["stop"] - 1 - scan["start"]


# terms travel as hex strings, which have no int-to-decimal digit limit


def encode_term(x: Fraction) -> list[str]:
    return [format(x.numerator, "x"), format(x.denominator, "x")]


def decode_term(t: list[str]) -> Fraction:
    return Fraction(int(t[0], 16), int(t[1], 16))
