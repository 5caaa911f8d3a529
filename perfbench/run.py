"""The ratiocert benchmark.

    python3 perfbench/run.py --workload scan-128 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is taken from `src/`.  Every
round of a workload is a fresh interpreter, so the program's process-wide
caches (the ln kernel's lru_cache, the prime sieve, the squarefree-sum table,
the ln 2 and e caches) start cold, as in every CLI run.  Rounds repeat until
`--seconds` is used up; each metric is the median over the rounds, with
times scaled to reference seconds by the speed probe (see `speed.py`).  The
last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 1` the run makes one untraced and one traced round and reports
the per-layer metrics instead; the spans go to `.perfbench/trace/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
PY = sys.executable
# every child is killed after this, so one run ends within 180 s
DEADLINE_S = 170.0
# fresh interpreters timed from launch to `import ratiocert.cli`, per round
SETUPS_PER_ROUND = 2
SETUP_PROBE = "import time, ratiocert.cli; print(repr(time.perf_counter()))"
# speed probes before, between and after the cli commands of a round (library
# rounds probe between their parts, in their own process)
SPEED_PROBES_PER_COMMAND = 2


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.plan = workloads.plan(workload, seed)
        self.t0 = time.perf_counter()
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("RATIOCERT_MAX_BITS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.k = 0

    def _timeout(self) -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - self.t0))

    def launch(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run argv to its end; exit code, wall seconds, peak RSS (MB) of its tree."""
        t = time.perf_counter()
        with open(stdout, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, env=self.env, cwd=ROOT,
                                    start_new_session=True)
        timer = threading.Timer(self._timeout(), _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 reports the largest RSS among the child and the pool
            # workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def setup_s(self) -> float:
        t = time.perf_counter()
        r = subprocess.run([PY, "-c", SETUP_PROBE], capture_output=True, text=True,
                           env=self.env, cwd=ROOT, timeout=self._timeout(), check=True)
        return float(r.stdout) - t

    def _path(self, stem: str) -> Path:
        self.k += 1
        return self.tmp / f"{stem}-{self.k}.json"

    def library_round(self, trace: Path | None = None) -> dict:
        out = self._path("round")
        argv = [PY, str(BENCH / "round.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", str(out)]
        if trace:
            argv += ["--trace", str(trace)]
        code, wall, peak = self.launch(argv, self._path("stdout"))
        if code != 0:
            raise RuntimeError(f"{self.workload} round exited {code}")
        rec = json.loads(out.read_text())
        rec.update(process_s=wall, peak_rss_mb=peak)
        return rec

    def cli_doc(self, argv: list[str]) -> tuple[dict, int, float, float]:
        out = self._path("cli")
        code, wall, peak = self.launch([PY, "-m", "ratiocert.cli", *argv], out)
        return json.loads(out.read_text()), code, wall, peak

    def cli_round(self) -> dict:
        probes, docs = [], []
        for argv in workloads.cli_commands(self.plan):
            probes += [speed.probe_s() for _ in range(SPEED_PROBES_PER_COMMAND)]
            docs.append(self.cli_doc(argv))
        probes += [speed.probe_s() for _ in range(SPEED_PROBES_PER_COMMAND)]
        (suite, suite_code, suite_s, suite_mb), (check, check_code, check_s, check_mb) = docs
        statuses = [r["status"] for r in suite["results"]]
        return {
            "wall_s": suite_s + check_s,
            "process_s": suite_s + check_s,
            "peak_rss_mb": max(suite_mb, check_mb),
            "verdicts": len(statuses) + check["stats"]["exact"] + check["stats"]["interval"]
                        + len(check["undecided"]),
            "failed": statuses.count("undecided") + len(check["undecided"]),
            "docs": [suite, check],
            "codes": [suite_code, check_code],
            "probes": probes,
        }

    def round(self) -> dict:
        return self.cli_round() if self.workload == "cli" else self.library_round()

    def traced_round(self) -> dict:
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        if self.workload != "cli":
            rec = self.library_round(trace_dir / f"{self.workload}.spans.tsv")
            return {"process_s": rec["process_s"], "figures": [rec["figures"]]}
        figures, process_s = [], 0.0
        for i in range(len(workloads.cli_commands(self.plan))):
            out = self._path("traced")
            code, wall, _ = self.launch(
                [PY, str(BENCH / "round.py"), "--workload", "cli", "--seed", str(self.seed),
                 "--out", str(out), "--command", str(i),
                 "--trace", str(trace_dir / f"cli-{i}.spans.tsv")],
                self._path("stdout"))
            if code != 0:
                raise RuntimeError(f"traced cli command {i} exited {code}")
            figures.append(json.loads(out.read_text())["figures"])
            process_s += wall
        return {"process_s": process_s, "figures": figures}

    # -- correctness --------------------------------------------------------

    def check(self, recs: list[dict]) -> list[str]:
        if self.workload == "cli":
            return self._check_cli(recs)
        problems = []
        first = _outputs(recs[0])
        if any(_outputs(r) != first for r in recs[1:]):
            problems.append("rounds of the same seed gave different outputs")
        rec = recs[0]
        if "scans" in self.plan:
            for scan, srec in zip(self.plan["scans"], rec["scans"]):
                terms = oracle.Terms(scan["seq"], scan["stop"] + 2)
                problems += oracle.check_scan(scan, srec, terms)
        else:
            primes = oracle.nth_primes(max(self.plan["firoozbakht"][1],
                                           self.plan["refinement"][1]) + 1)
            problems += oracle.check_firoozbakht(rec["firoozbakht"], primes)
            problems += oracle.check_refinement(rec["refinement"], primes)
        return problems

    def _check_cli(self, recs: list[dict]) -> list[str]:
        check_argv = self.plan["check"]
        start = int(check_argv[check_argv.index("--from") + 1])
        stop = int(check_argv[check_argv.index("--to") + 1])
        single, code, _, _ = self.cli_doc([*check_argv, "--jobs", "1"])
        problems = oracle.check_scan_doc(single, code, start, stop)
        for rec in recs:
            suite, check = rec["docs"]
            problems += oracle.check_suite_doc(suite, rec["codes"][0])
            problems += oracle.check_scan_doc(check, rec["codes"][1], start, stop)
            problems += oracle.check_jobs_invariance(check, single)
        return sorted(set(problems))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _outputs(rec: dict) -> dict:
    return {k: v for k, v in rec.items()
            if k not in ("wall_s", "process_s", "peak_rss_mb", "figures", "probes")}


def timed_run(r: Runner, seconds: float) -> tuple[list[dict], dict]:
    probes, setups, recs = [], [], []
    start = time.perf_counter()
    while True:
        setups += [r.setup_s() for _ in range(SETUPS_PER_ROUND)]
        recs.append(r.round())
        probes += recs[-1]["probes"]
        elapsed = time.perf_counter() - start
        # stop when another round would overshoot the deadline by more than
        # stopping now falls short of it
        if elapsed + 0.5 * elapsed / len(recs) > seconds:
            break
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(x["wall_s"] for x in recs),
        "verdicts_per_s": statistics.median(x["verdicts"] / x["wall_s"] for x in recs),
        "speed_probe_s": statistics.median(probes),
    }
    print(f"measured: {json.dumps(measured)}", file=sys.stderr)
    scale = speed.REF_S / measured["speed_probe_s"]
    metrics = {
        "setup_s": measured["setup_s"] * scale,
        "wall_s": measured["wall_s"] * scale,
        "verdicts_per_s": measured["verdicts_per_s"] / scale,
        "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in recs),
    }
    return recs, metrics


def traced_run(r: Runner) -> tuple[list[dict], dict]:
    base = r.round()
    traced = r.traced_round()
    metrics = tracing.layer_metrics(traced["figures"])
    metrics["trace.overhead_s"] = traced["process_s"] - base["process_s"]
    return [base], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ratiocert benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ratiocert" / "cli.py").is_file():
        print(f"error: no ratiocert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    r = Runner(args.workload, args.seed)
    try:
        recs, metrics = traced_run(r) if args.trace else timed_run(r, args.seconds)
        problems = r.check(recs)
    finally:
        r.close()
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(x["verdicts"] for x in recs),
        "failed": sum(x["failed"] for x in recs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
