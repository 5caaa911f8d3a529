"""Command-line front end: scans, empirical start search, check suite, tables.

Every command writes its report through `_report` and takes its exit code
from `_exit_code`: 0 certified / all checks passed, 1 violations or refuted
checks, 2 undecided results present, 64 usage errors, among them an `--out`
path that cannot be written.  Output formats are text, json (schema_version
2), and csv; all UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import reduce

from .compare import (
    DEFAULT_ENGINE,
    Direction,
    Engine,
    MethodStats,
    MonotonicityReport,
    check_monotone,
    combine_reports,
    min_start_from_report,
    ratio_table,
)
from .numerics import MIN_PRECISION_BITS, _aligned, _outward_floats
from .sequences import (
    Derangement,
    Harmonic,
    IndexBelowDomainStart,
    InvalidParameters,
    Lucas,
    Primes,
    Product,
    Sequence,
    SquarefreeSum,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

# Steps per worker without --jobs, measured on fibonacci with 2 CPUs only: cold, --jobs 2
# lost 16 of 18 runs to --jobs 1 at 8 000 and 10 000 steps and won 8 of 9 at 20 000.  A step
# is not a unit of work (a lucas:3,2 pool wins from about 3 000 steps), and the route model
# cannot tell before the scan what precision its steps need.  More CPUs are extrapolated.
_STEPS_PER_WORKER = 6000


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# sequence tokens: fibonacci | lucas:A,B | derangement | harmonic:m | primes |
# squarefree-sum | product(<token>,<token>)


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_sequence_token(text: str) -> Sequence:
    token = text.strip()
    if token.startswith("product(") and token.endswith(")"):
        inner = _split_top_level(token[len("product(") : -1])
        if len(inner) != 2:
            raise UsageError(f"product needs exactly two children, got {token!r}")
        return Product(parse_sequence_token(inner[0]), parse_sequence_token(inner[1]))
    if token.endswith(")") and "(" in token:
        name, _, rest = token.partition("(")
        argtext = rest[:-1]
    else:
        name, _, argtext = token.partition(":")
    name = name.strip()
    args = [a.strip() for a in argtext.split(",")] if argtext else []
    try:
        if name == "fibonacci" and not args:
            return Lucas(1, -1)
        if name == "lucas" and len(args) == 2:
            return Lucas(int(args[0]), int(args[1]))
        if name == "harmonic" and len(args) == 1:
            return Harmonic(int(args[0]))
        if name == "derangement" and not args:
            return Derangement()
        if name == "primes" and not args:
            return Primes()
        if name == "squarefree-sum" and not args:
            return SquarefreeSum()
    except (ValueError, InvalidParameters) as exc:
        raise UsageError(f"bad sequence token {token!r}: {exc}") from exc
    raise UsageError(f"unknown sequence token {token!r}")


# ---------------------------------------------------------------------------
# engine, timing and the one report path


# Engine's messages name its fields; a user typed the flags
_FLAGS = {"start_bits": "--start-bits", "cap_bits": "--precision-cap",
          "exact_budget": "--exact-budget"}


def _engine(args: argparse.Namespace) -> Engine:
    try:
        return Engine(args.start_bits, args.precision_cap, args.exact_budget)
    except ValueError as exc:
        message = str(exc)
        for name, flag in _FLAGS.items():
            message = message.replace(name, flag)
        raise UsageError(message) from exc


def _timed(fn, *args, **kwargs):
    # (fn's result, its wall time in whole milliseconds)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, int((time.perf_counter() - t0) * 1000)


def _exit_code(failed, undecided) -> int:
    return EXIT_VIOLATIONS if failed else EXIT_UNDECIDED if undecided else EXIT_OK


def _report(args: argparse.Namespace, engine: Engine, config_extra: dict, results: list,
            violations: list, undecided: list, stats: MethodStats, wall_ms: int,
            lines: list[str], csv_rows: list[list]) -> None:
    """Write the command's report in --format to --out or stdout."""
    if args.format == "json":
        config = {
            "format": args.format,
            "precision_cap": engine.cap_bits,
            "exact_budget": engine.exact_budget,
            "start_bits": engine.start_bits,
            "jobs": getattr(args, "jobs", 1),
            **config_extra,
        }
        doc = {"schema_version": 2, "command": args.command, "config": config,
               "results": results, "violations": violations, "undecided": undecided,
               "stats": stats.to_json(), "wall_ms": wall_ms}
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        payload = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise UsageError(f"--out {args.out!r} cannot be written: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# sharded scans


def _scan_block(payload) -> MonotonicityReport:
    return check_monotone(*payload)


def _run_scan(seq: Sequence, start: int, stop: int, direction: Direction,
              engine: Engine, jobs: int) -> MonotonicityReport:
    if jobs == 1:
        return check_monotone(seq, start, stop, direction, engine)
    from concurrent.futures import ProcessPoolExecutor  # only a sharded scan pays its import
    # jobs contiguous blocks of steps, block k being cuts[k] <= n < cuts[k + 1]
    cuts = [start + (stop - 1 - start) * k // jobs for k in range(jobs + 1)]
    payloads = [(seq, lo, hi + 1, direction, engine) for lo, hi in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_scan_block, payloads))
    return combine_reports(parts)


def _scan(args: argparse.Namespace, seq: Sequence, start: int, stop: int,
          engine: Engine) -> tuple[MonotonicityReport, int]:
    # (report, wall_ms) of steps start..stop-2 on args.jobs workers
    steps = stop - 1 - start
    if args.jobs is None:
        args.jobs = min(os.cpu_count() or 1, max(1, steps // _STEPS_PER_WORKER))
    elif args.jobs > steps:
        raise UsageError(f"--jobs {args.jobs} exceeds the scan's {steps} steps")
    return _timed(_run_scan, seq, start, stop, Direction(args.direction), engine, args.jobs)


# ---------------------------------------------------------------------------
# commands


def _stats_line(stats: MethodStats) -> str:
    # the JSON `stats` keys, in the same order
    return "stats: " + " ".join(f"{k}={v}" for k, v in stats.to_json().items())


def cmd_check(args: argparse.Namespace) -> int:
    seq = parse_sequence_token(args.seq)
    engine = _engine(args)
    if args.start < seq.domain_start:
        raise UsageError(
            f"--from {args.start} is below the first index {seq.domain_start} of {seq.name}"
        )
    if args.stop < args.start + 2:
        raise UsageError("--to must be at least --from + 2")
    report, wall_ms = _scan(args, seq, args.start, args.stop, engine)
    certified = report.certified()
    results = [{"sequence": report.sequence, "from": report.start, "to": report.stop,
                "direction": report.direction.value,
                "min_valid_start": report.min_valid_start, "certified": certified}]
    lines = [
        f"check {report.sequence} direction={report.direction.value} "
        f"steps n={report.start}..{report.stop - 2}",
        f"violations: {list(report.violations)}",
        f"undecided: {list(report.undecided)}",
        f"min_valid_start: {report.min_valid_start}",
        _stats_line(report.stats),
        f"wall_ms: {wall_ms}",
        f"result: {'CERTIFIED' if certified else 'NOT CERTIFIED'}",
    ]
    csv_rows = [["n", "kind"]]
    csv_rows += [[n, "violation"] for n in report.violations]
    csv_rows += [[n, "undecided"] for n in report.undecided]
    _report(args, engine,
            dict(seq=seq.name, start=args.start, stop=args.stop, direction=args.direction),
            results, list(report.violations), list(report.undecided), report.stats, wall_ms,
            lines, csv_rows)
    return _exit_code(report.violations, report.undecided)


def cmd_find_start(args: argparse.Namespace) -> int:
    seq = parse_sequence_token(args.seq)
    engine = _engine(args)
    if args.horizon < seq.domain_start + 2:
        raise UsageError(f"--horizon must be at least {seq.domain_start + 2}")
    report, wall_ms = _scan(args, seq, seq.domain_start, args.horizon, engine)
    n_start = min_start_from_report(report)
    results = [{"sequence": report.sequence, "horizon": args.horizon,
                "direction": report.direction.value, "min_start": n_start,
                "note": "empirical up to horizon; no claim beyond it"}]
    if n_start is None:
        headline = f"no valid start: violations persist to the horizon {args.horizon}"
    else:
        headline = (
            f"empirical minimal start N = {n_start} "
            f"(no violation for {n_start} <= n <= {args.horizon - 2}; "
            f"empirical up to horizon {args.horizon}, no claim beyond it)"
        )
    lines = [
        f"find-start {report.sequence} direction={report.direction.value}",
        headline,
        f"violations: {list(report.violations)}",
        f"undecided: {list(report.undecided)}",
        _stats_line(report.stats),
        f"wall_ms: {wall_ms}",
    ]
    csv_rows = [["sequence", "horizon", "min_start"],
                [report.sequence, args.horizon, n_start if n_start is not None else ""]]
    _report(args, engine, dict(seq=seq.name, horizon=args.horizon, direction=args.direction),
            results, list(report.violations), list(report.undecided), report.stats, wall_ms,
            lines, csv_rows)
    return _exit_code(n_start is None, report.undecided)


def cmd_paper_suite(args: argparse.Namespace) -> int:
    from .paperchecks import CheckStatus, paper_suite  # only paper-suite pays its import
    engine = _engine(args)
    sizes = dict(prime_horizon=args.prime_horizon, offset_max=args.offset_max,
                 stirling_max=args.stirling_max)
    checks, wall_ms = _timed(paper_suite, **sizes, engine=engine)
    refuted = [c.name for c in checks if c.status is CheckStatus.REFUTED]
    undecided = [c.name for c in checks if c.status is CheckStatus.UNDECIDED]
    total = reduce(MethodStats.merged, (c.stats for c in checks), MethodStats())
    lines = []
    for c in checks:
        margin = c.detail.get("margin")
        extra = f" margin=[{margin[0]:.6g}, {margin[1]:.6g}]" if margin else ""
        if c.stats.max_bits:
            extra += f" bits={c.stats.max_bits}"
        lines.append(f"{c.name}: {c.status.value.upper()}{extra}")
    lines.append(
        f"summary: {len(checks)} checks, {len(refuted)} refuted, "
        f"{len(undecided)} undecided, wall_ms={wall_ms}"
    )
    csv_rows = [["name", "status", "bits"]]
    csv_rows += [[c.name, c.status.value, c.stats.max_bits or ""] for c in checks]
    _report(args, engine, sizes, [c.to_json() for c in checks], refuted, undecided, total,
            wall_ms, lines, csv_rows)
    return _exit_code(refuted, undecided)


def cmd_table(args: argparse.Namespace) -> int:
    seq = parse_sequence_token(args.seq)
    if args.indices is not None:
        if (args.start, args.stop, args.step) != (None, None, None):
            raise UsageError("--indices cannot be combined with --from, --to or --step")
        try:
            indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --indices: {exc}") from exc
    elif args.start is not None and args.stop is not None:
        indices = list(range(args.start, args.stop + 1, args.step or 1))
    else:
        raise UsageError("table needs --indices or both --from and --to")
    if not indices:
        raise UsageError("empty index list")
    if min(indices) < seq.domain_start:
        raise UsageError(f"indices must be >= {seq.domain_start} for {seq.name}")
    rows, wall_ms = _timed(ratio_table, seq, indices, args.bits)
    # (n, enclosure, its ends as floats rounded outward)
    rows = [(n, enc, *_outward_floats(*_aligned(enc.lo, enc.hi))) for n, enc in rows]
    results = [
        {
            "n": n,
            "ln_r_lo": lo,
            "ln_r_hi": hi,
            "lo_exact": str(enc.lo),
            "hi_exact": str(enc.hi),
            "method": "interval",
        }
        for n, enc, lo, hi in rows
    ]
    lines = [f"ln r_n enclosures for {seq.name} at {args.bits} bits"]
    lines += [f"n={n:<8d} ln_r in [{lo:+.12e}, {hi:+.12e}]" for n, _, lo, hi in rows]
    csv_rows = [["n", "ln_r_lo", "ln_r_hi", "method"]]
    csv_rows += [[n, repr(lo), repr(hi), "interval"] for n, _, lo, hi in rows]
    # table has no ladder: the engine flags do not reach it
    _report(args, DEFAULT_ENGINE, dict(seq=seq.name, indices=indices, bits=args.bits),
            results, [], [], MethodStats(interval=len(rows), max_bits=args.bits), wall_ms,
            lines, csv_rows)
    return _exit_code(False, False)


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(least: int):
    # an int flag whose smaller values are usage errors (exit 64)
    def integer(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        return int(text)
    return integer


def _add_common(p: argparse.ArgumentParser, *, engine: bool = True, jobs: bool = True) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    if not engine:
        return
    p.add_argument("--precision-cap", type=int, default=DEFAULT_ENGINE.cap_bits,
                   help="interval ladder cap in bits, >= --start-bits (default %(default)s)")
    p.add_argument("--start-bits", type=int, default=DEFAULT_ENGINE.start_bits,
                   help="interval ladder starting precision (default %(default)s)")
    p.add_argument("--exact-budget", type=int, default=DEFAULT_ENGINE.exact_budget,
                   help="exact fallback size budget in bits (default %(default)s)")
    if jobs:
        p.add_argument("--jobs", type=_at_least(1), default=None,
                       help=f"worker processes (default: one per {_STEPS_PER_WORKER} steps, "
                            "at most one per CPU)")


def _add_sequence_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True,
                   help="fibonacci | lucas:A,B | derangement | harmonic:m | primes | "
                        "squarefree-sum | product(x,y); lucas(A,B) and harmonic(m) "
                        "also work, and product nests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratiocert",
        description="Certified monotonicity checks for root-ratio sequences "
                    "r_n = a_{n+1}^(1/(n+1)) / a_n^(1/n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="scan a range and certify a direction")
    _add_sequence_flag(p_check)
    p_check.add_argument("--from", dest="start", type=int, required=True)
    p_check.add_argument("--to", dest="stop", type=int, required=True)
    p_check.add_argument("--direction", choices=("decreasing", "increasing"), required=True)
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_find = sub.add_parser("find-start", help="empirical minimal valid start index")
    _add_sequence_flag(p_find)
    p_find.add_argument("--horizon", type=int, required=True)
    p_find.add_argument("--direction", choices=("decreasing", "increasing"), required=True)
    _add_common(p_find)
    p_find.set_defaults(func=cmd_find_start)

    p_suite = sub.add_parser("paper-suite", help="run every named finite check")
    # the smallest sizes at which every range check holds an instance
    p_suite.add_argument("--prime-horizon", type=_at_least(5), default=2000)
    p_suite.add_argument("--offset-max", type=_at_least(3), default=60)
    p_suite.add_argument("--stirling-max", type=_at_least(2), default=100)
    _add_common(p_suite, jobs=False)
    p_suite.set_defaults(func=cmd_paper_suite)

    p_table = sub.add_parser("table", help="emit ln r_n enclosures")
    _add_sequence_flag(p_table)
    p_table.add_argument("--indices", default=None, help="comma-separated indices")
    p_table.add_argument("--from", dest="start", type=int, default=None)
    p_table.add_argument("--to", dest="stop", type=int, default=None)
    p_table.add_argument("--step", type=_at_least(1), default=None,
                         help="range step, with --from/--to only (default 1)")
    p_table.add_argument("--bits", type=_at_least(MIN_PRECISION_BITS),
                         default=DEFAULT_ENGINE.start_bits)
    _add_common(p_table, engine=False)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, InvalidParameters, IndexBelowDomainStart) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
