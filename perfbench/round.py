"""One round of a library workload, or one traced process, in a fresh interpreter.

    python3 perfbench/round.py --workload scan-128 --seed 1 --out rec.json [--trace spans.tsv]

`ratiocert.cli` (which imports the whole package) is imported first, then the
workload's public calls run; `wall_s` times those calls alone.  The speed
probe (`speed.py`) runs before, between and after them.  With
`--trace` the calls run under `tracing.Tracer` and the record carries the raw
per-layer figures; the spans go to the given file.  For the `cli` workload
only traced rounds run here (`--command i` picks the command): the timed cli
rounds are fresh `python3 -m ratiocert.cli` processes started by run.py.
Terms and samples are read after the timed part, with tracing removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

t_import = time.perf_counter()
import ratiocert.cli as cli  # noqa: E402
from ratiocert import compare, paperchecks  # noqa: E402

import_s = time.perf_counter() - t_import

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parts(p: dict, specs: list) -> list:
    """The round's public calls, in order."""
    if specs:
        return [lambda spec=spec, s=s: compare.check_monotone(
                    spec, s["start"], s["stop"], compare.Direction(s["direction"]))
                for spec, s in zip(specs, p["scans"])]
    # a few short parts per family, so that speed probes run close to the work
    return ([lambda ns=ns: [paperchecks.check_firoozbakht(n) for n in ns]
             for ns in _chunks(p["firoozbakht"], 2)]
            + [lambda ns=ns: [paperchecks.check_prime_ratio_refinement(n) for n in ns]
               for ns in _chunks(p["refinement"], 4)])


def _chunks(bounds: list[int], k: int) -> list[range]:
    lo, hi = bounds
    step = -(-(hi + 1 - lo) // k)
    return [range(a, min(a + step, hi + 1)) for a in range(lo, hi + 1, step)]


def run_parts(calls: list) -> tuple[list, float, list[float]]:
    """Outputs and total seconds of the calls, with a speed probe before,
    between and after them (outside the timed part)."""
    probes = [speed.probe_s()]
    outs, wall = [], 0.0
    for call in calls:
        t0 = time.perf_counter()
        outs.append(call())
        wall += time.perf_counter() - t0
        probes.append(speed.probe_s())
    return outs, wall, probes


def scan_record(p: dict, specs: list, reports: list) -> dict:
    scans = []
    for spec, s, rep in zip(specs, p["scans"], reports):
        terms = {}
        for n in sorted(set(s["sample"]) | set(rep.violations)):
            terms[str(n)] = [workloads.encode_term(x) for x in spec.terms(n, n + 2)]
        st = rep.stats
        scans.append({
            "violations": list(rep.violations),
            "undecided": list(rep.undecided),
            "stats": {"exact": st.exact, "interval": st.interval, "undecided": st.undecided,
                      "escalations": st.escalations, "max_bits": st.max_bits},
            "terms": terms,
        })
    verdicts = sum(workloads.scan_steps(s) for s in p["scans"])
    failed = sum(len(s["undecided"]) for s in scans)
    return {"verdicts": verdicts, "failed": failed, "scans": scans}


def primes_record(p: dict, outs: list[list]) -> dict:
    results = [r for out in outs for r in out]
    f0, f1 = p["firoozbakht"]
    firo, refine = results[:f1 + 1 - f0], results[f1 + 1 - f0:]

    def family(results, start, sample, fields):
        status = [r.status.value for r in results]
        return {
            "refuted": [start + i for i, s in enumerate(status) if s == "refuted"],
            "undecided": [start + i for i, s in enumerate(status) if s == "undecided"],
            "sample": {str(n): {"status": status[n - start],
                                **{k: results[n - start].detail.get(k) for k in fields}}
                       for n in sample},
        }

    f = family(firo, p["firoozbakht"][0], p["firoozbakht_sample"], ("p_n", "p_next"))
    r = family(refine, p["refinement"][0], p["refinement_sample"], ("margin",))
    return {
        "verdicts": len(firo) + len(refine),
        "failed": len(f["undecided"]) + len(r["undecided"]),
        "firoozbakht": f,
        "refinement": r,
    }


def run_library(p: dict, tracer) -> dict:
    specs = [cli.parse_sequence_token(s["seq"]) for s in p.get("scans", ())]
    if tracer:
        tracer.install()
    out, wall, probes = run_parts(parts(p, specs))
    if tracer:
        tracer.uninstall()
    rec = scan_record(p, specs, out) if specs else primes_record(p, out)
    rec.update(wall_s=wall, probes=probes)
    return rec


def run_cli_traced(p: dict, command: int, tracer) -> dict:
    argv = workloads.cli_commands(p)[command]
    buf = io.StringIO()
    tracer.install()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    text = buf.getvalue()
    return {"wall_s": wall, "code": code, "doc": json.loads(text),
            "json_bytes": len(text.encode("utf-8"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path, default=None, help="write spans to this file")
    ap.add_argument("--command", type=int, default=0, help="cli workload: command index")
    args = ap.parse_args()
    p = workloads.plan(args.workload, args.seed)
    tracer = None
    if args.trace:
        # pool workers of a traced `check` leave their shard times here
        shard_dir = args.trace.with_suffix(".shards")
        shutil.rmtree(shard_dir, ignore_errors=True)
        shard_dir.mkdir()
        tracer = tracing.Tracer(shard_dir)
    if args.workload == "cli":
        if tracer is None:
            ap.error("the cli workload runs untraced as `python3 -m ratiocert.cli`")
        rec = run_cli_traced(p, args.command, tracer)
    else:
        rec = run_library(p, tracer)
    if tracer:
        fig = tracing.raw_figures(tracer)
        fig["cli.json_bytes"] = rec.get("json_bytes", 0)
        fig["cli.import_s"] = import_s
        rec["figures"] = fig
        tracer.write_spans(args.trace)
        shutil.rmtree(tracer.shard_dir)
    args.out.write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
