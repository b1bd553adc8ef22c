"""One workload run in a fresh process: time items, check outputs, print JSON.

Started by run.py with single-threaded BLAS and PYTHONPATH pointing at the
checkout's src/.  Closed loop, one caller: items run back to back in a fixed
order, cycling over the seeded item set until the time is up (always at
least one full pass).  With --trace 1 passes alternate untraced and traced,
and only per-layer metrics are reported.
"""

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import namedtuple
from pathlib import Path

from tracer import HERM_EIG_DIMS, TRACE_MARKER, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PROBES = 11
MIN_ITEMS_FOR_TAIL = 20  # with fewer, rank n - 10 lies below the median
PROBE = (
    "import time; t = time.perf_counter(); import qmeas; "
    "print(repr(time.perf_counter() - t)); print(qmeas.__file__)"
)

# Output recorded for an item whose call raised instead of returning.
Raised = namedtuple("Raised", "type message")


class GcClock:
    """Total time spent in the cyclic garbage collector, from gc.callbacks."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start


GC_CLOCK = GcClock()


class SetupProbes:
    """Import qmeas in fresh interpreters at even intervals through a run.

    Spreading the probes over the run, rather than timing them back to
    back, keeps one slow stretch of the host from setting the median.
    """

    def __init__(self, start, seconds, count=SETUP_PROBES):
        self.due = [start + seconds * k / count for k in range(count)]
        self.times = []

    def poll(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.run()

    def run(self):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise SystemExit(f"import probe failed:\n{proc.stderr}")
        seconds, where = proc.stdout.split("\n")[:2]
        _require_checkout(where)
        self.times.append(float(seconds))

    def median(self):
        while self.due:
            self.due.pop(0)
            self.run()
        return statistics.median(self.times)


def _require_checkout(module_file):
    if ROOT / "src" not in Path(module_file).resolve().parents:
        raise SystemExit(f"qmeas imported from {module_file}, not from this checkout's src/")


def _import_qmeas():
    start = time.perf_counter()
    import qmeas

    import_s = time.perf_counter() - start
    _require_checkout(qmeas.__file__)
    return qmeas, import_s


class Loop:
    """Per-item latencies, first outputs and verdicts over repeated passes."""

    def __init__(self, items, runner, workloads):
        self.items = items
        self.runner = runner
        self.w = workloads
        n = len(items)
        self.latencies = [[] for _ in range(n)]
        self.first = [None] * n
        self.first_digest = [None] * n
        self.executions = 0
        self.gc_s = 0.0  # collector time inside items, over all executions
        self.unstable = [False] * n  # output changed between repetitions

    def run_one(self, k):
        """Run item k once; its latency sample leaves out collector pauses.

        Which item a collection lands on depends on where the allocation
        count crosses the collector's threshold, not on the item, so the
        pauses are summed apart and charged to `wall` instead.
        """
        item = self.items[k]
        gc_before = GC_CLOCK.total
        start = time.perf_counter()
        try:
            output = self.runner.run(item)
        except Exception as exc:  # the program failed this item; count it
            output = Raised(type(exc).__name__, str(exc))
        elapsed = time.perf_counter() - start
        in_gc = GC_CLOCK.total - gc_before
        self.gc_s += in_gc
        self.latencies[k].append(elapsed - in_gc)
        self.executions += 1
        digest = self.w.output_digest(output)
        if self.first_digest[k] is None:
            self.first[k], self.first_digest[k] = output, digest
        elif digest != self.first_digest[k]:
            self.unstable[k] = True

    def full_pass(self):
        self.until(0.0)

    def until(self, deadline, between=None):
        """Cycle over the items until `deadline`, after one full pass."""
        n = len(self.items)
        k = 0
        while k < n or time.perf_counter() < deadline:
            self.run_one(k % n)
            k += 1
            if between:
                between()

    def verdicts(self):
        """Per item, why its first output is wrong, or '' when it is right."""
        out = []
        for item, output in zip(self.items, self.first):
            if isinstance(output, Raised):
                out.append(f"raised {output.type}: {output.message[:120]}")
            else:
                out.append(self.w.check(item, output))
        return out

    def typical(self):
        """Per-item latency: the median of its repetitions.

        On a loaded shared host most repetitions run slowed down and a few
        catch a fast moment.  The fastest repetition of an item then depends
        on whether such a moment came, which for items of 5 ms and longer
        varies from run to run by up to a third; the median, like a user's
        run, sees the host as it mostly is, and one stall does not move it.
        """
        return [statistics.median(x) for x in self.latencies]

    def gc_per_pass(self):
        """Mean collector time inside items per pass over the item set."""
        return self.gc_s * len(self.items) / self.executions

    def wall(self):
        """One pass over the item set: the typical item times plus the collector."""
        return sum(self.typical()) + self.gc_per_pass()


def tally(loops, verdicts):
    """(failed items, no output was wrong) over `loops`.

    An item fails when it raised, when its output is wrong, or when its
    output changed between repetitions.  Only a raise leaves the run correct.
    `attempted` and `failed` count items, not executions: an item is one
    checked operation however often it is timed, so both counts depend on
    the seed alone and not on how many repetitions fit in the run.
    """
    bad = [k for k, r in enumerate(verdicts) if r or any(lp.unstable[k] for lp in loops)]
    right = not any(any(lp.unstable) for lp in loops) and not any(
        r and not r.startswith("raised") for r in verdicts
    )
    return len(bad), right


def latency_samples(loop):
    """The samples that the p50 and the tail are taken over.

    One per item, its median time, unless the item set is so small that the
    tail rank (10 samples beyond it) would lie below the median; then every
    repetition is a sample.  Only cli-configs, with 16 items, is that small.
    """
    typical = loop.typical()
    if len(typical) >= MIN_ITEMS_FOR_TAIL:
        return typical
    return [t for times in loop.latencies for t in times]


def end_to_end(loop, verdicts, rss_mb):
    n = len(loop.items)
    wall = loop.wall()
    samples = sorted(latency_samples(loop))
    tail_rank = len(samples) - 10  # 1-based rank with exactly 10 samples beyond it
    failed, right = tally([loop], verdicts)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (n / wall, "1/s"),
        "item_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "item_ms_tail": (samples[tail_rank - 1] * 1e3, "ms"),
        "success_rate": (1.0 - failed / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    notes = {
        "items": n,
        "samples_per_item_min": min(len(x) for x in loop.latencies),
        "latency_samples": loop.executions,
        "p50_and_tail_samples": len(samples),
        "gc_ms_per_pass": round(loop.gc_per_pass() * 1e3, 3),
        "tail_percentile": round(100.0 * tail_rank / len(samples), 2),
    }
    return metrics, failed, right, notes


def layer_metrics(passes, import_s, overhead):
    """Per-layer metrics from traced-pass summaries (see tracer.summarize)."""
    first = passes[0]
    calls = first["calls"]
    counts = first["counts"]

    def self_s(*names):
        return statistics.median(sum(p["self_s"].get(n, 0.0) for n in names) for p in passes)

    herm = sorted(n for n in set().union(*(p["calls"] for p in passes)) if n.startswith("operators.herm_eig.d"))
    m = {
        "operators.herm_eig.calls": (sum(calls.get(n, 0) for n in herm), "count"),
        "operators.herm_eig.self_s": (self_s(*herm), "s"),
    }
    for d in HERM_EIG_DIMS:
        name = f"operators.herm_eig.d{d}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("operators.Operator", "states.DensityOperator", "states.Pvm", "states.expectation",
                 "povm.validate", "povm.distribution", "nonideality.recover_nonideality",
                 "sampling.sample_counts"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["operators.tensor_product.calls"] = (calls.get("operators.tensor_product", 0), "count")
    for name in ("operators.exp_hermitian_generator", "operators.partial_trace_second",
                 "nonideality.check_martens", "nonideality.row_entropy_measure",
                 "premeasurement.from_generator", "premeasurement.induced_povm",
                 "premeasurement.pointer_consistency", "experiments.whichway_povm",
                 "experiments.eprbell_povm", "experiments.chsh_single_setup",
                 "experiments.chsh_pasted_aspect", "experiments.quadruple_sample_check",
                 "cli.parse_config", "cli.run", "cli.emit"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    validated = counts.get("povm.effects_validated", 0)
    m["povm.effects_validated"] = (validated, "count")
    m["povm.derived_share"] = (counts.get("povm.effects_derived", 0) / validated if validated else 0.0, "ratio")
    for layer in ("nonideality", "premeasurement"):
        m[f"{layer}.errors"] = (first["errors"].get(layer, 0), "count")
    sample_self = m["sampling.sample_counts.self_s"][0]
    m["sampling.draws_per_s"] = (counts.get("sampling.draws", 0) / sample_self if sample_self else 0.0, "1/s")
    m["cli.import_s"] = (import_s, "s")
    m["cli.exit_nonzero"] = (counts.get("cli.exit_nonzero", 0), "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def merge(summaries):
    """Sum several tracer summaries (one per CLI child) into one."""
    out = {"calls": {}, "self_s": {}, "errors": {}, "counts": {}}
    for s in summaries:
        for key, table in out.items():
            for name, value in s[key].items():
                table[name] = table.get(name, 0) + value
    return out


def _child_summary(stderr: str) -> dict:
    """The tracer summary a traced CLI child printed as its last stderr line."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    raise RuntimeError("traced CLI child printed no trace summary")


def _traced_run(q, w, items, loop, workdir, deadline, import_s, is_cli):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    if is_cli:
        runner = w.Runner(q, workdir, [sys.executable, str(BENCH_DIR / "cli_child.py")])
        runner.env = loop.runner.env
    else:
        runner = loop.runner
    traced = Loop(items, runner, w)
    tracer = Tracer()
    summaries, child_imports = [], []
    while True:
        loop.full_pass()
        if is_cli:
            children, exits = [], 0
            for k in range(len(items)):
                traced.run_one(k)
                child = _child_summary(runner.last_stderr)
                child_imports.append(child["counts"].pop("cli.import_s"))
                children.append(child)
                exits += traced.first[k][0] != 0
            summary = merge(children)
            summary["counts"]["cli.exit_nonzero"] = exits
        else:
            with tracer:
                traced.full_pass()
            summary = summarize(tracer.spans, tracer.counts)
            tracer.reset()
        summaries.append(summary)
        if time.perf_counter() >= deadline:
            break
    if child_imports:
        import_s = statistics.median(child_imports)
    overhead = traced.wall() / loop.wall()
    metrics = layer_metrics(summaries, import_s, overhead)
    verdicts = loop.verdicts()
    digests_match = loop.first_digest == traced.first_digest
    calls_repeat = all(s["calls"] == summaries[0]["calls"] for s in summaries)
    failed, right = tally([loop, traced], verdicts)
    correct = right and digests_match and calls_repeat
    notes = {
        "traced_passes": len(summaries),
        "digests_match": digests_match,
        "calls_repeat": calls_repeat,
    }
    return metrics, failed, correct, notes, verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow noise of failing items

    q, import_s = _import_qmeas()
    import workloads as w

    items = w.make_inputs(args.workload, args.seed)
    is_cli = args.workload == "cli-configs"
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        loop = Loop(items, w.Runner(q, workdir), w)
        start = time.perf_counter()
        deadline = start + args.seconds
        if not args.trace:
            probes = SetupProbes(start, args.seconds)
            loop.until(deadline, probes.poll)
            setup_s = probes.median()
            verdicts = loop.verdicts()
            who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, failed, correct, notes = end_to_end(loop, verdicts, rss_mb)
            metrics["setup_s"] = (setup_s, "s")
        else:
            metrics, failed, correct, notes, verdicts = _traced_run(
                q, w, items, loop, workdir, deadline, import_s, is_cli
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = sorted({r for r in verdicts if r})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "notes": notes, "problems": problems[:10]}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(items),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
