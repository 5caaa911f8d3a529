"""Spans and counters around the public functions of each ratiocert module.

`install` replaces every public function of `sequences`, `numerics`,
`compare`, `paperchecks` and `cli` (plus the few private `cli` functions that
mark the pool boundary) with a wrapper that records a span: name, start,
end and the span that was open when it was called.  A function that another
module imported by name (`from .numerics import interval_ln`) is replaced in
that module too.  Spans stay in flat arrays in memory and are written out
once, after the timed part.  Nothing in the package itself is changed on
disk; `uninstall` puts every original back.

Spans inside `--jobs` pool workers are not kept: a worker only reports how
long its shard took, so that `cli.overhead_s` can leave the shard work out.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path

# private functions that mark the cli's engine and pool boundaries
_PRIVATE_BOUNDARIES = {"cli": ("_run_scan", "_scan_block", "_emit")}

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, shard_dir: Path | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.count: Counter = Counter()
        self.maximum: Counter = Counter()
        self.ln_seen: set[int] = set()
        self.pid = os.getpid()
        self.shard_dir = shard_dir
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> int:
        t = _now()
        self.end[i] = t
        self.stack.pop()
        return t - self.start[i]

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import ratiocert
        from ratiocert import cli, compare, numerics, paperchecks, sequences

        modules = {"sequences": sequences, "numerics": numerics, "compare": compare,
                   "paperchecks": paperchecks, "cli": cli}
        self.estimate_exact_bits = compare.estimate_exact_bits
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in _PRIVATE_BOUNDARIES.get(layer, ()):
                    continue
                hook = _HOOKS.get(f"{layer}.{attr}", _span)
                if layer == "paperchecks" and attr.startswith("check_"):
                    hook = _check
                replaced[id(fn)] = hook(self, f"{layer}.{attr}", fn)
        for mod in (ratiocert, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

        for cls in vars(sequences).values():
            if inspect.isclass(cls) and issubclass(cls, sequences.Sequence) \
                    and "terms" in cls.__dict__:
                self._set(cls, "terms", _terms(self, cls.__dict__["terms"]))
        comb = compare.LogCombination
        self._set(comb, "from_pairs", classmethod(
            _span(self, "compare.from_pairs", comb.__dict__["from_pairs"].__func__)))
        iv = numerics.DyadicInterval
        built = iv.__post_init__

        def __post_init__(obj):
            self.count["numerics.intervals_built"] += 1
            built(obj)

        self._set(iv, "__post_init__", __post_init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Total and self nanoseconds of closed spans, by span name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] if self.end[i] else 0 for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return dict(total), dict(own)

    def durations(self, name: str, parent: str | None = None) -> list[int]:
        nid = self._ids.get(name)
        pid = self._ids.get(parent) if parent else None
        return [self.end[i] - self.start[i] for i in range(len(self.name))
                if self.name[i] == nid
                and (parent is None or (self.parent[i] >= 0
                                        and self.name[self.parent[i]] == pid))]

    def shard_ns(self) -> list[int]:
        if self.shard_dir is None:
            return []
        return [int(line) for f in sorted(self.shard_dir.glob("shard-*.txt"))
                for line in f.read_text().split()]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")


# ---------------------------------------------------------------------------
# wrappers


def _span(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        i = tr.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)

    return wrapper


def _counted(tr: Tracer, name: str, fn, key: str):
    inner = _span(tr, name, fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        tr.count[key] += 1
        return inner(*args, **kwargs)

    return wrapper


def _ln_key(x) -> int:
    lo = getattr(x, "lo", None)
    if lo is not None:
        return hash((lo.mantissa, lo.exponent, x.hi.mantissa, x.hi.exponent))
    if hasattr(x, "mantissa"):
        return hash((x.mantissa, x.exponent, "d"))
    return hash(x)


def _interval_ln(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    @wraps(fn)
    def interval_ln(x, bits):
        key = hash((_ln_key(x), bits))
        if key in tr.ln_seen:
            tr.count["numerics.ln_repeats"] += 1
        else:
            tr.ln_seen.add(key)
        tr.count["numerics.ln_calls"] += 1
        i = tr.open(nid)
        try:
            return fn(x, bits)
        finally:
            d = tr.close(i)
            bucket = "le128" if bits <= 128 else "le1024" if bits <= 1024 else "gt1024"
            tr.count[f"numerics.ln_ns.{bucket}"] += d

    return interval_ln


def _sign(tr: Tracer, name: str, fn):
    inner = _span(tr, name, fn)

    @wraps(fn)
    def sign_of_log_combination(*args, **kwargs):
        rungs = tr.count["compare.rungs"]
        v = inner(*args, **kwargs)
        c = tr.count
        method = v.method.value if v.method else None
        if v.ordering.value == "undecided":
            c["compare.undecided"] += 1
        else:
            c["compare.verdicts"] += 1
            if method == "interval":
                c["compare.interval_verdicts"] += 1
        c["compare.escalations"] += v.escalations
        if method == "exact" and c["compare.rungs"] > rungs:
            c["compare.exact_after_ladder"] += 1
        return v

    return sign_of_log_combination


def _decide_exact(tr: Tracer, name: str, fn):
    inner = _span(tr, name, fn)

    @wraps(fn)
    def decide_exact(comb):
        bits = tr.estimate_exact_bits(comb)
        tr.count["compare.exact_calls"] += 1
        tr.count["compare.exact_bits_sum"] += bits
        tr.maximum["compare.exact_bits_max"] = max(tr.maximum["compare.exact_bits_max"], bits)
        return inner(comb)

    return decide_exact


def _check(tr: Tracer, name: str, fn):
    inner = _span(tr, name, fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        tr.count["paperchecks.checks"] += 1
        bits = out.detail.get("bits") or out.detail.get("max_bits") or 0
        tr.maximum["paperchecks.max_bits"] = max(tr.maximum["paperchecks.max_bits"], bits)
        return out

    return wrapper


def _scan_block(tr: Tracer, name: str, fn):
    inner = _span(tr, name, fn)

    @wraps(fn)
    def _scan_block(payload):
        t = _now()
        out = inner(payload)
        if os.getpid() != tr.pid and tr.shard_dir is not None:
            with open(tr.shard_dir / f"shard-{os.getpid()}.txt", "a") as fh:
                fh.write(f"{_now() - t}\n")
        return out

    return _scan_block


def _terms(tr: Tracer, fn):
    nid = tr.name_id("sequences.terms")

    @wraps(fn)
    def terms(self, start, stop):
        it = fn(self, start, stop)
        while True:
            i = tr.open(nid)
            try:
                x = next(it)
            except StopIteration:
                return
            finally:
                tr.close(i)
            tr.count["sequences.terms"] += 1
            yield x

    return terms


_HOOKS = {
    "numerics.interval_ln": _interval_ln,
    "numerics.round_outward":
        lambda tr, name, fn: _counted(tr, name, fn, "numerics.round_outward_calls"),
    "compare.evaluate_combination":
        lambda tr, name, fn: _counted(tr, name, fn, "compare.rungs"),
    "compare.sign_of_log_combination": _sign,
    "compare.decide_exact": _decide_exact,
    "cli._scan_block": _scan_block,
}


# ---------------------------------------------------------------------------
# per-layer figures of one traced process


def raw_figures(tr: Tracer) -> dict:
    """Additive figures of one traced process; `layer_metrics` combines them."""
    total, own = tr.totals()
    s = 1e-9
    c = tr.count

    def t(name: str) -> float:
        return total.get(name, 0) * s

    main = tr.durations("cli.main")
    engine = (sum(tr.durations("paperchecks.paper_suite"))
              + sum(tr.durations("compare.check_monotone", parent="cli._run_scan"))
              + max(tr.shard_ns(), default=0))
    return {
        "sequences.terms": c["sequences.terms"],
        "sequences.terms_s": t("sequences.terms"),
        "sequences.nth_prime_s": t("sequences.nth_prime"),
        "numerics.ln_calls": c["numerics.ln_calls"],
        "numerics.ln_repeats": c["numerics.ln_repeats"],
        "numerics.ln_s": t("numerics.interval_ln"),
        **{f"numerics.ln_s.{b}": c[f"numerics.ln_ns.{b}"] * s
           for b in ("le128", "le1024", "gt1024")},
        "numerics.round_outward_calls": c["numerics.round_outward_calls"],
        "numerics.round_outward_s": t("numerics.round_outward"),
        "numerics.intervals_built": c["numerics.intervals_built"],
        "compare.verdicts": c["compare.verdicts"],
        "compare.undecided": c["compare.undecided"],
        "compare.build_s": t("compare.from_pairs"),
        "compare.sign_self_s": own.get("compare.sign_of_log_combination", 0) * s,
        "compare.rungs": c["compare.rungs"],
        "compare.interval_verdicts": c["compare.interval_verdicts"],
        "compare.evaluate_s": t("compare.evaluate_combination"),
        "compare.escalations": c["compare.escalations"],
        "compare.exact_after_ladder": c["compare.exact_after_ladder"],
        "compare.exact_calls": c["compare.exact_calls"],
        "compare.exact_s": t("compare.decide_exact"),
        "compare.exact_bits_sum": c["compare.exact_bits_sum"],
        "compare.exact_bits_max": tr.maximum["compare.exact_bits_max"],
        "paperchecks.checks": c["paperchecks.checks"],
        "paperchecks.self_s": sum(v for k, v in own.items()
                                  if k.startswith("paperchecks.")) * s,
        "paperchecks.max_bits": tr.maximum["paperchecks.max_bits"],
        "cli.overhead_s": (sum(main) - engine) * s if main else 0.0,
    }


_MAXIMA = ("compare.exact_bits_max", "paperchecks.max_bits")
_MEANS = ("cli.import_s",)


def layer_metrics(figures: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced round made of one or more processes."""
    out: dict[str, float] = {}
    for key in figures[0]:
        vals = [f[key] for f in figures]
        if key in _MAXIMA:
            out[key] = max(vals)
        elif key in _MEANS:
            out[key] = sum(vals) / len(vals)
        else:
            out[key] = sum(vals)
    out["numerics.ln_repeat_ratio"] = (
        out["numerics.ln_repeats"] / out["numerics.ln_calls"] if out["numerics.ln_calls"] else 0.0)
    out["compare.rung_yield"] = (
        out["compare.interval_verdicts"] / out["compare.rungs"] if out["compare.rungs"] else 0.0)
    del out["numerics.ln_repeats"], out["compare.interval_verdicts"]
    return out
