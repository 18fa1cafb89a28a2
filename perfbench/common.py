"""Shared pieces of the benchmark: metric schema, statistics, host
stamp, peak memory and the in-memory span tracer.

Nothing here imports the engine, so the runner can report a missing
source tree before touching it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import sysconfig
import threading
import time
from pathlib import Path

#: End-to-end metrics (``--trace 0``), name -> unit.  Every workload
#: reports every one of them; see ``run.py`` for what each means on
#: each workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A layer that does
#: no work on a workload reports 0.
PER_LAYER = {
    "filter.busy_ms": "ms",
    "filter.candidates_per_query": "count",
    "init.busy_ms": "ms",
    "init.distributions_built": "count",
    "init.dist_cache_hit_frac": "frac",
    "init.table_cache_hit_frac": "frac",
    "verify.busy_ms": "ms",
    "verify.settled_frac": "frac",
    "verify.unknown_after.RS": "frac",
    "verify.unknown_after.L-SR": "frac",
    "verify.unknown_after.U-SR": "frac",
    "refine.busy_ms": "ms",
    "refine.objects_per_query": "count",
    "engine.unattributed_ms": "ms",
    "executor.spawn_s": "s",
    "executor.overhead_ms": "ms",
    "executor.worker_failures": "count",
    "executor.inline_fallbacks": "count",
    "executor.shm_fallbacks": "count",
    "service.wait_p50_ms": "ms",
    "service.wait_p99_ms": "ms",
    "service.mean_batch": "count",
    "service.engine_busy_frac": "frac",
    "service.shed": "count",
    "service.deadline_misses": "count",
    "continuous.tick_p50_ms": "ms",
    "continuous.tick_p99_ms": "ms",
    "continuous.replay_frac": "frac",
    "continuous.escape_frac": "frac",
    "registry.replace_ms": "ms",
    "runtime.gc_frac": "frac",
    "gen.late_p99_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: How many times set-up runs in an untraced run; ``setup_s`` is the
#: median, so one slow spawn cannot move it.
SETUP_REPEATS = 5


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Report:
    """Metric values plus the sample count behind each, for the
    human-readable lines and the final JSON object."""

    def __init__(self, schema: dict[str, str]) -> None:
        self._schema = schema
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        if name not in self._schema:
            raise KeyError(f"unknown metric {name!r}")
        self.values[name] = float(value)
        if samples is not None:
            self.samples[name] = int(samples)

    def tail(
        self,
        prefix: str,
        values_ms,
        p50: str,
        tail: str,
        q: float,
        samples: int | None = None,
    ) -> None:
        """``prefix_p50`` and a tail percentile of one latency list.

        A tail percentile needs ten samples beyond it to mean
        anything; the count is printed next to it so a reader can see
        when a run was too short.  ``samples`` overrides the count when
        ``values_ms`` repeats one measurement for several specs.
        """
        n = len(values_ms) if samples is None else samples
        self.put(f"{prefix}_{p50}", median(values_ms), n)
        self.put(f"{prefix}_{tail}", percentile(values_ms, q), n)

    def missing(self) -> list[str]:
        return [name for name in self._schema if name not in self.values]

    def lines(self) -> list[str]:
        out = []
        for name, unit in self._schema.items():
            value = self.values.get(name)
            if value is None:
                continue
            n = self.samples.get(name)
            suffix = f"  (n={n})" if n is not None else ""
            out.append(f"  {name:<30} {value:>14.6g} {unit}{suffix}")
        return out

    def metrics(self) -> dict:
        return {
            name: {"value": self.values[name], "unit": unit}
            for name, unit in self._schema.items()
        }


# ----------------------------------------------------------------------
# Host stamp and memory
# ----------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    """HEAD's commit read straight from ``.git`` (no subprocess); a
    plain source checkout has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file of the package, so a checkout
    without git history is still identified by its code."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp(root: Path, seed: int) -> dict:
    """Where and on what the numbers were measured.  Wall times are
    comparable only between runs with equal stamps (minus the seed)."""
    import numpy

    free_threaded = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_build": "free-threaded" if free_threaded else "gil",
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root / "src" / "repro"),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child.

    ``RUSAGE_CHILDREN`` reports the largest *reaped* child, so call
    this after the engine's worker pool has been shut down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    per_mb = 2**20 if sys.platform == "darwin" else 2**10  # bytes vs KiB
    return (own + child) / per_mb


def settle_heap() -> None:
    """Collect garbage and freeze what survives.

    Call it once, after the benchmark has generated its inputs and
    before any engine exists: full collections then skip the inputs,
    which the program under test would never hold, but still scan
    everything the engine keeps.  ``GcClock`` reports the pause time.
    """
    gc.collect()
    gc.freeze()


class CpuRotation:
    """Moves the calling thread to the next CPU on each ``step``.

    On a shared virtual machine each CPU runs at its own speed, which
    changes with its neighbours' load every few tens of seconds, and
    the scheduler keeps a busy thread on one CPU for long stretches.  A
    single-threaded run that stays on one CPU reads that CPU's speed,
    so runs spread by the ratio between the slow and the fast speed
    (about 1.5 on a 2-core test host).  Stepping to the next CPU every
    few hundred milliseconds gives each run the average of all of them.
    Use it only where one thread does all the work: a thread pinned
    beside worker processes or other threads contends with them.
    """

    def __init__(self, enabled: bool) -> None:
        linux = hasattr(os, "sched_getaffinity")
        cpus = sorted(os.sched_getaffinity(0)) if linux else []
        self.cpus = cpus if enabled and len(cpus) > 1 else []

    def step(self, i: int) -> None:
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def stop(self) -> None:
        """Let the thread run on every CPU again."""
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)


class GcClock:
    """Sums garbage-collector pause time between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class _Span:
    __slots__ = ("_tracer", "_name", "_layer", "_req", "_id", "_parent", "_start", "_c0")

    def __init__(self, tracer: "Tracer", name: str, layer: str, req) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._req = req

    def __enter__(self) -> "_Span":
        self._c0 = time.perf_counter()
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._id = next(self._tracer._ids)
        stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack().pop()
        tracer.spans.append(
            (self._id, self._name, self._layer, self._start, end, self._parent, self._req)
        )
        tracer.cost_s += (self._start - self._c0) + (time.perf_counter() - end)


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans kept in memory: ``(id, name, layer, start, end, parent,
    request)``.  Parents nest per thread, so calls the service makes on
    its engine thread form their own trees.  ``cost_s`` is the time the
    tracer itself spent recording — the traced-minus-untraced
    difference of the instrumented code, measured directly.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.cost_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, req=None):
        return _Span(self, name, layer, req) if self.enabled else _NO_SPAN

    def record(self, name: str, layer: str, start: float, end: float, req=None) -> None:
        """Add a finished root span (e.g. a request timed from when it
        was due, which no ``with`` block can open)."""
        self.spans.append((next(self._ids), name, layer, start, end, None, req))

    @staticmethod
    def layer_self_seconds(spans) -> dict[str, float]:
        """Layer -> summed self time of ``spans``: each span's duration
        minus the time its children cover (children of one parent never
        overlap here).  ``spans`` must hold the children of its spans."""
        own = {s[0]: s[4] - s[3] for s in spans}
        for s in spans:
            if s[5] in own:
                own[s[5]] -= s[4] - s[3]
        totals: dict[str, float] = {}
        for s in spans:
            totals[s[2]] = totals.get(s[2], 0.0) + own[s[0]]
        return totals

    def dump(self, path: Path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "layer", "start", "end", "parent", "req")
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class LayerProbe:
    """Per-layer numbers read from the results the engine returns.

    ``on_batch`` takes one ``BatchResult`` and the wall time of the call
    that produced it; the phase times are the ones the engine itself
    books in ``BatchResult.timings`` (summed over workers on a sharded
    engine), so a change inside a phase moves them whichever path ran
    it.  Only numbers are kept: holding the results (a C-kNN or C-range
    result carries one record per object) would grow the heap the
    garbage collector scans.
    """

    PHASES = ("filtering", "initialization", "verification", "refinement")
    LAYERS = ("filter", "init", "verify", "refine")
    VERIFIERS = ("RS", "L-SR", "U-SR")

    def __init__(self) -> None:
        from repro.core.types import CPNNQuery

        self._pnn_type = CPNNQuery
        #: Per batch: phase milliseconds, then unattributed milliseconds.
        self.batch_ms: list[tuple] = []
        #: Distribution-cache hits/misses, table-cache hits/misses.
        self.cache = [0, 0, 0, 0]
        #: Per C-PNN result: candidates, refined, unknown after each verifier.
        self.pnn: list[tuple] = []

    def on_batch(self, batch, seconds: float) -> None:
        phases = [getattr(batch.timings, p) * 1e3 for p in self.PHASES]
        self.batch_ms.append((*phases, seconds * 1e3 - sum(phases)))
        for i, n in enumerate(
            (batch.cache_hits, batch.cache_misses, batch.table_hits, batch.table_misses)
        ):
            self.cache[i] += n
        for r in batch.results:
            if isinstance(r.spec, self._pnn_type):
                self.pnn.append(
                    (
                        len(r.records),  # one record per filtered candidate
                        r.refined_objects,
                        *(r.unknown_after_verifier.get(v, 0.0) for v in self.VERIFIERS),
                    )
                )

    def unattributed_ms(self) -> list[float]:
        """Per batch: wall time minus the four phases."""
        return [row[4] for row in self.batch_ms]

    def report_into(self, report: Report) -> None:
        """Fill the filter, init, verify, refine and engine metrics."""
        n = len(self.batch_ms)
        columns = list(zip(*self.batch_ms)) or [()] * 5
        for layer, values in zip(self.LAYERS, columns):
            report.put(f"{layer}.busy_ms", median(values), n)
        report.put("engine.unattributed_ms", median(columns[4]), n)
        hits, misses, table_hits, table_misses = self.cache
        report.put("init.distributions_built", frac(misses, n), n)
        report.put("init.dist_cache_hit_frac", frac(hits, hits + misses))
        report.put(
            "init.table_cache_hit_frac", frac(table_hits, table_hits + table_misses)
        )
        pnn = list(zip(*self.pnn)) or [()] * (2 + len(self.VERIFIERS))
        candidates, refined = sum(pnn[0]), sum(pnn[1])
        report.put("filter.candidates_per_query", mean(pnn[0]), len(pnn[0]))
        report.put("verify.settled_frac", frac(candidates - refined, candidates))
        for name, values in zip(self.VERIFIERS, pnn[2:]):
            report.put(f"verify.unknown_after.{name}", mean(values))
        report.put("refine.objects_per_query", mean(pnn[1]), len(pnn[1]))


def instrument(tracer: Tracer, obj, attr: str, layer: str, on_result=None):
    """Shadow ``obj.attr`` with a traced wrapper on the instance (the
    class, and every other instance, stay untouched).  ``on_result``
    sees ``(result, seconds)`` after each call."""
    fn = getattr(obj, attr)

    def traced(*args, **kwargs):
        with tracer.span(attr, layer):
            tick = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - tick
        if on_result is not None:
            on_result(result, seconds)
        return result

    setattr(obj, attr, traced)
