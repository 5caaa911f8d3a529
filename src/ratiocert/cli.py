"""Command-line front end: scans, empirical start search, check suite, tables.

Exit codes: 0 certified / all checks passed, 1 violations or refuted checks,
2 undecided results present, 64 usage errors.  Output formats are text,
json (schema_version 2), and csv; all UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .compare import (
    DEFAULT_CAP_BITS,
    DEFAULT_EXACT_BUDGET,
    DEFAULT_START_BITS,
    Direction,
    MethodStats,
    MonotonicityReport,
    check_monotone,
    combine_reports,
    min_start_from_report,
    ratio_table,
)
from .paperchecks import CheckStatus, paper_suite
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

ENV_MAX_BITS = "RATIOCERT_MAX_BITS"


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


def build_sequence(args: argparse.Namespace) -> Sequence:
    token = args.seq
    try:
        if token == "lucas" and args.A is not None:
            if args.B is None:
                raise UsageError("--seq lucas needs both --A and --B")
            return Lucas(args.A, args.B)
        if token == "harmonic" and args.m is not None:
            return Harmonic(args.m)
        if token == "product" and (args.left or args.right):
            if not (args.left and args.right):
                raise UsageError("--seq product needs both --left and --right")
            return Product(
                parse_sequence_token(args.left), parse_sequence_token(args.right)
            )
    except InvalidParameters as exc:
        raise UsageError(str(exc)) from exc
    return parse_sequence_token(token)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    command: str
    fmt: str
    out: Optional[str]
    precision_cap: int
    exact_budget: int
    start_bits: int
    jobs: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.precision_cap < 128:
            raise UsageError(f"precision cap must be >= 128, got {self.precision_cap}")
        if self.start_bits < 16 or self.start_bits > self.precision_cap:
            raise UsageError("starting precision must be in [16, precision cap]")
        if self.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if self.exact_budget < 0:
            raise UsageError("--exact-budget must be >= 0")

    def engine_opts(self) -> dict:
        return {
            "start_bits": self.start_bits,
            "cap_bits": self.precision_cap,
            "exact_budget": self.exact_budget,
        }

    def to_json(self) -> dict:
        return {
            "format": self.fmt,
            "precision_cap": self.precision_cap,
            "exact_budget": self.exact_budget,
            "start_bits": self.start_bits,
            "jobs": self.jobs,
            **self.extra,
        }


def _resolve_cap(args: argparse.Namespace) -> int:
    # table has no ladder: neither the flag nor the environment reaches it
    if not hasattr(args, "precision_cap"):
        return DEFAULT_CAP_BITS
    if args.precision_cap is not None:
        return args.precision_cap
    env = os.environ.get(ENV_MAX_BITS)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{ENV_MAX_BITS} must be an integer, got {env!r}") from exc
    return DEFAULT_CAP_BITS


def _given(args: argparse.Namespace, name: str, default: int) -> int:
    # a flag set to 0 is honoured (or rejected), never replaced by the default
    value = getattr(args, name, None)
    return default if value is None else value


def _config(args: argparse.Namespace, command: str, **extra) -> RunConfig:
    return RunConfig(
        command=command,
        fmt=args.format,
        out=args.out,
        precision_cap=_resolve_cap(args),
        exact_budget=_given(args, "exact_budget", DEFAULT_EXACT_BUDGET),
        start_bits=_given(args, "start_bits", DEFAULT_START_BITS),
        jobs=_given(args, "jobs", 1),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# report emission


def _emit(doc: dict, lines: list[str], csv_rows: list[list], cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        payload = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    elif cfg.fmt == "csv":
        payload = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _doc(command: str, cfg: RunConfig, results: list, violations: list,
         undecided: list, stats: dict, wall_ms: int) -> dict:
    return {
        "schema_version": 2,
        "command": command,
        "config": cfg.to_json(),
        "results": results,
        "violations": violations,
        "undecided": undecided,
        "stats": stats,
        "wall_ms": wall_ms,
    }


# ---------------------------------------------------------------------------
# sharded scans


def _scan_block(payload) -> MonotonicityReport:
    seq, start, stop, direction, opts = payload
    return check_monotone(seq, start, stop, direction, **opts)


def _run_scan(seq: Sequence, start: int, stop: int, direction: Direction,
              cfg: RunConfig) -> MonotonicityReport:
    window_count = stop - 1 - start
    jobs = min(cfg.jobs, max(1, window_count // 8))
    if jobs <= 1:
        return check_monotone(seq, start, stop, direction, **cfg.engine_opts())
    block = -(-window_count // jobs)
    payloads = []
    n = start
    while n <= stop - 2:
        n_hi = min(n + block - 1, stop - 2)
        payloads.append((seq, n, n_hi + 2, direction, cfg.engine_opts()))
        n = n_hi + 1
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_scan_block, payloads))
    return combine_reports(parts)


# ---------------------------------------------------------------------------
# commands


def _direction(args: argparse.Namespace) -> Direction:
    return Direction(args.direction)


def _stats_line(stats: MethodStats) -> str:
    # the JSON `stats` keys, in the same order
    return "stats: " + " ".join(f"{k}={v}" for k, v in stats.to_json().items())


def cmd_check(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    cfg = _config(
        args, "check",
        seq=seq.name, start=args.start, stop=args.stop, direction=args.direction,
    )
    if args.start < seq.domain_start:
        raise UsageError(
            f"--from {args.start} is below the first index {seq.domain_start} of {seq.name}"
        )
    if args.stop < args.start + 2:
        raise UsageError("--to must be at least --from + 2")
    t0 = time.perf_counter()
    report = _run_scan(seq, args.start, args.stop, _direction(args), cfg)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    certified = report.certified()
    results = [
        {
            "sequence": report.sequence,
            "from": report.start,
            "to": report.stop,
            "direction": report.direction.value,
            "min_valid_start": report.min_valid_start,
            "certified": certified,
        }
    ]
    doc = _doc(
        "check", cfg, results, list(report.violations), list(report.undecided),
        report.stats.to_json(), wall_ms,
    )
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
    _emit(doc, lines, csv_rows, cfg)
    if report.violations:
        return EXIT_VIOLATIONS
    if report.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_find_start(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    cfg = _config(
        args, "find-start", seq=seq.name, horizon=args.horizon, direction=args.direction,
    )
    if args.horizon < seq.domain_start + 2:
        raise UsageError(f"--horizon must be at least {seq.domain_start + 2}")
    t0 = time.perf_counter()
    report = _run_scan(seq, seq.domain_start, args.horizon, _direction(args), cfg)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    n_start = min_start_from_report(report)
    results = [
        {
            "sequence": report.sequence,
            "horizon": args.horizon,
            "direction": report.direction.value,
            "min_start": n_start,
            "note": "empirical up to horizon; no claim beyond it",
        }
    ]
    doc = _doc(
        "find-start", cfg, results, list(report.violations), list(report.undecided),
        report.stats.to_json(), wall_ms,
    )
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
    _emit(doc, lines, csv_rows, cfg)
    if n_start is None:
        return EXIT_VIOLATIONS
    if report.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_paper_suite(args: argparse.Namespace) -> int:
    cfg = _config(
        args, "paper-suite",
        prime_horizon=args.prime_horizon, offset_max=args.offset_max,
        stirling_max=args.stirling_max,
    )
    t0 = time.perf_counter()
    checks = paper_suite(
        prime_horizon=args.prime_horizon,
        offset_max=args.offset_max,
        stirling_max=args.stirling_max,
        start_bits=cfg.start_bits,
        cap_bits=cfg.precision_cap,
        exact_budget=cfg.exact_budget,
    )
    wall_ms = int((time.perf_counter() - t0) * 1000)
    refuted = [c.name for c in checks if c.status is CheckStatus.REFUTED]
    undecided = [c.name for c in checks if c.status is CheckStatus.UNDECIDED]
    total = reduce(MethodStats.merged, (c.stats for c in checks), MethodStats())
    doc = _doc(
        "paper-suite", cfg, [c.to_json() for c in checks], refuted, undecided,
        total.to_json(), wall_ms,
    )
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
    csv_rows += [
        [c.name, c.status.value, c.stats.max_bits or ""]
        for c in checks
    ]
    _emit(doc, lines, csv_rows, cfg)
    if refuted:
        return EXIT_VIOLATIONS
    if undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    if args.indices:
        try:
            indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --indices: {exc}") from exc
    elif args.start is not None and args.stop is not None:
        indices = list(range(args.start, args.stop + 1, args.step))
    else:
        raise UsageError("table needs --indices or both --from and --to")
    if not indices:
        raise UsageError("empty index list")
    if min(indices) < seq.domain_start:
        raise UsageError(f"indices must be >= {seq.domain_start} for {seq.name}")
    cfg = _config(args, "table", seq=seq.name, indices=indices, bits=args.bits)
    t0 = time.perf_counter()
    rows = ratio_table(seq, indices, args.bits)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    results = [
        {
            "n": n,
            "ln_r_lo": float(enc.lo),
            "ln_r_hi": float(enc.hi),
            "lo_exact": str(enc.lo),
            "hi_exact": str(enc.hi),
            "method": "interval",
        }
        for n, enc in rows
    ]
    stats = MethodStats(interval=len(rows), max_bits=args.bits)
    doc = _doc("table", cfg, results, [], [], stats.to_json(), wall_ms)
    lines = [f"ln r_n enclosures for {seq.name} at {args.bits} bits"]
    lines += [
        f"n={n:<8d} ln_r in [{float(enc.lo):+.12e}, {float(enc.hi):+.12e}]"
        for n, enc in rows
    ]
    csv_rows = [["n", "ln_r_lo", "ln_r_hi", "method"]]
    csv_rows += [[n, repr(float(enc.lo)), repr(float(enc.hi)), "interval"] for n, enc in rows]
    _emit(doc, lines, csv_rows, cfg)
    return EXIT_OK


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
    p.add_argument("--precision-cap", type=int, default=None,
                   help=f"interval ladder cap in bits (default {DEFAULT_CAP_BITS}, "
                        f"env {ENV_MAX_BITS})")
    p.add_argument("--start-bits", type=int, default=None,
                   help=f"interval ladder starting precision (default {DEFAULT_START_BITS})")
    p.add_argument("--exact-budget", type=int, default=None,
                   help=f"exact fallback size budget in bits (default {DEFAULT_EXACT_BUDGET})")
    if jobs:
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker processes for range sharding")


def _add_sequence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True,
                   help="fibonacci | lucas | derangement | harmonic | primes | "
                        "squarefree-sum | product(a,b); inline args like lucas:3,2")
    p.add_argument("--A", type=int, default=None, help="lucas: first parameter")
    p.add_argument("--B", type=int, default=None, help="lucas: second parameter")
    p.add_argument("--m", type=int, default=None, help="harmonic: order")
    p.add_argument("--left", default=None, help="product: left child token")
    p.add_argument("--right", default=None, help="product: right child token")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratiocert",
        description="Certified monotonicity checks for root-ratio sequences "
                    "r_n = a_{n+1}^(1/(n+1)) / a_n^(1/n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="scan a range and certify a direction")
    _add_sequence_flags(p_check)
    p_check.add_argument("--from", dest="start", type=int, required=True)
    p_check.add_argument("--to", dest="stop", type=int, required=True)
    p_check.add_argument("--direction", choices=("decreasing", "increasing"), required=True)
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_find = sub.add_parser("find-start", help="empirical minimal valid start index")
    _add_sequence_flags(p_find)
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
    _add_sequence_flags(p_table)
    p_table.add_argument("--indices", default=None, help="comma-separated indices")
    p_table.add_argument("--from", dest="start", type=int, default=None)
    p_table.add_argument("--to", dest="stop", type=int, default=None)
    p_table.add_argument("--step", type=_at_least(1), default=1)
    p_table.add_argument("--bits", type=_at_least(16), default=DEFAULT_START_BITS)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParameters, IndexBelowDomainStart) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
