"""``lbs_service``: an open-loop location-based service.

``QueryService`` at default ``ServiceConfig`` over the 2,000-object
dead-reckoning stream (``StreamingWorkload``).  Set-up subscribes 48
continuous specs (16 each of C-PNN, C-kNN with k = 3 and C-range, at
evenly spaced points) and answers 8 warm-up queries.  The run then
sends, on a schedule fixed by the seed before set-up:

* Poisson query arrivals at 48/s, a third of each family; 80% of the
  points come from 64 fixed hot points and 20% are fresh;
* Poisson ``replace`` updates at 20/s, taken from the stream's
  dead-reckoning reports; each is a barrier that also ticks the
  subscriptions' monitor.

The rates keep the engine busy about a quarter of the time on a 2-core
host, so queueing does not multiply a slow spell of a shared host into
every latency, and still give the tail percentiles 500 updates and
1,200 queries per 25-second run.

Each request is timed from when it was due, so a stall shows in every
request queued behind it.  Shed (``QueueFull``), failed and timed-out
requests are counted as failed instead of aborting the run.

Answers are checked outside the timed region against a fresh
``UncertainEngine`` that replays the admitted updates in admission
order: the replies to every tenth request (answers and records, bit for bit, at the
update prefix it was admitted after) and every subscription's last
snapshot's answer (after all updates).

The traced run wraps the calls the service makes into its engine
(``execute_batch``, ``replace``) and into the subscription monitor
(``replace``, ``tick``) with spans, and adds one span per request.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    END_TO_END,
    PER_LAYER,
    SETUP_REPEATS,
    GcClock,
    LayerProbe,
    Report,
    Tracer,
    frac,
    instrument,
    median,
    peak_rss_mb,
    percentile,
    settle_heap,
)
from repro.core.engine import UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.datasets.longbeach import LONG_BEACH_DOMAIN
from repro.experiments.workloads import StreamingWorkload
from repro.service import QueryService, QueueFull, ServiceConfig

OBJECTS = {"full": 2_000, "tiny": 300}
QUERY_RATE = 48.0
UPDATE_RATE = 20.0
HOT_POINTS = 64
HOT_SHARE = 0.8
HOT_POINTS_SEED = 20080407
SUBSCRIPTIONS_PER_FAMILY = 16
WARMUP_QUERIES = 8
THRESHOLD = 0.35
TOLERANCE = 0.01
K = 3
RADIUS = 25.0
#: Every this many requests, the reply is checked against the reference.
CHECK_EVERY = 10
#: How long the run waits for outstanding requests after the last
#: arrival before counting them as timed out.
DRAIN_S = 60.0


def make_spec(q: float, family: int):
    if family == 0:
        return CPNNQuery(q, threshold=THRESHOLD, tolerance=TOLERANCE)
    if family == 1:
        return CKNNQuery(q, threshold=THRESHOLD, k=K)
    return CRangeQuery(q, threshold=THRESHOLD, radius=RADIUS)


@dataclass
class Inputs:
    objects: list
    subscriptions: list
    warmup: list
    #: ``(offset_s, "query", spec)`` or ``(offset_s, "update", (key, obj))``
    events: list


def make_inputs(seed: int, seconds: float, size: str) -> Inputs:
    n = OBJECTS[size]
    stream = StreamingWorkload(
        n_objects=n, churn=min(1.0, UPDATE_RATE / n), n_queries=1, seed=seed
    )
    rng = np.random.default_rng([seed, 1])

    def points(count, source=rng):
        return [float(q) for q in source.uniform(*LONG_BEACH_DOMAIN, size=count)]

    # The service's geography is fixed — the monitored points evenly
    # spaced, the hot points drawn once — so seeds vary the traffic,
    # not which places are watched or popular.
    lo, hi = LONG_BEACH_DOMAIN
    step = (hi - lo) / SUBSCRIPTIONS_PER_FAMILY
    subscriptions = [
        make_spec(lo + step * (i + (family + 1) / 4), family)
        for family in range(3)
        for i in range(SUBSCRIPTIONS_PER_FAMILY)
    ]
    hot = points(HOT_POINTS, np.random.default_rng(HOT_POINTS_SEED))
    warmup = [make_spec(q, i % 3) for i, q in enumerate(points(WARMUP_QUERIES))]

    def arrivals(rate):
        times = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16))
        return times[times < seconds]

    events = []
    for t in arrivals(QUERY_RATE):
        q = hot[int(rng.integers(HOT_POINTS))] if rng.random() < HOT_SHARE else points(1)[0]
        events.append((float(t), "query", make_spec(q, int(rng.integers(3)))))
    update_times = arrivals(UPDATE_RATE)
    reports = []
    tick = 0
    while len(reports) < len(update_times):
        reports.extend(stream.tick(tick).replacements)
        tick += 1
    events.extend((float(t), "update", r) for t, r in zip(update_times, reports))
    events.sort(key=lambda e: e[0])
    return Inputs(stream.initial_objects(), subscriptions, warmup, events)


def digest(result) -> int:
    """Hash of everything a reply answers.  Only the hash is kept: a
    C-kNN or C-range reply carries one record per object, and holding
    hundreds of them would grow the heap the garbage collector scans."""
    return hash(
        (
            result.answers,
            tuple((x.key, x.label, x.lower, x.upper, x.exact) for x in result.records),
        )
    )


@dataclass
class Run:
    """Everything the open loop observed."""

    query_ms: list = field(default_factory=list)
    wait_ms: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    engine_calls: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    answered: int = 0
    wall_s: float = 0.0
    gc_s: float = 0.0
    #: Admitted updates in admission order (``None`` = shed).
    mutations: list = field(default_factory=list)
    #: ``(mutation prefix, spec, digest)`` of the checked replies.
    checks: list = field(default_factory=list)


async def _setup(inputs: Inputs):
    engine = UncertainEngine(inputs.objects)
    service = QueryService(engine, ServiceConfig())
    await service.start()
    subs = await asyncio.gather(*(service.subscribe(s) for s in inputs.subscriptions))
    await asyncio.gather(*(service.submit(s) for s in inputs.warmup))
    return engine, service, subs


async def _open_loop(service, inputs: Inputs, tracer: Tracer, log) -> Run:
    run = Run()
    loop = asyncio.get_running_loop()

    async def query(index: int, due: float, spec) -> None:
        prefix = len(run.mutations)
        try:
            reply = await service.submit(spec)
        except QueueFull:
            run.shed += 1
            run.failed += 1
            return
        except Exception as exc:  # noqa: BLE001 -- counted, run continues
            log(f"query {index} failed: {exc!r}")
            run.failed += 1
            return
        done = time.perf_counter()
        run.answered += 1
        run.query_ms.append((done - due) * 1e3)
        run.wait_ms.append((done - due - reply.latency_s) * 1e3)
        run.engine_calls.add((reply.latency_s, reply.coalesced))
        run.wall_s = max(run.wall_s, done - start)
        if tracer.enabled:
            tracer.record("query", "service", due, done, req=index)
        if index % CHECK_EVERY == 0:
            run.checks.append((prefix, spec, digest(reply.result)))

    async def update(index: int, due: float, key, obj) -> None:
        seq = len(run.mutations)
        run.mutations.append((key, obj))
        try:
            await service.replace(key, obj)
        except QueueFull:
            run.mutations[seq] = None
            run.shed += 1
            run.failed += 1
            return
        except Exception as exc:  # noqa: BLE001
            log(f"update {index} failed: {exc!r}")
            run.failed += 1
            return
        done = time.perf_counter()
        run.update_ms.append((done - due) * 1e3)
        if tracer.enabled:
            tracer.record("replace", "service", due, done, req=index)

    tasks = []
    start = time.perf_counter() + 0.05
    for index, (offset, kind, payload) in enumerate(inputs.events):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        run.late_ms.append((time.perf_counter() - due) * 1e3)
        run.attempted += 1
        if kind == "query":
            coro = query(index, due, payload)
        else:
            coro = update(index, due, *payload)
        tasks.append(loop.create_task(coro))
    _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
    for task in pending:
        task.cancel()
    if pending:
        log(f"{len(pending)} requests timed out")
        run.failed += len(pending)
        await asyncio.wait(pending)
    return run


async def _follow(subscription, latest: list, i: int) -> None:
    """Keep only a subscription's newest answer, as a subscriber does.
    Unread snapshots would pile up in the queue, and each C-kNN or
    C-range snapshot carries one record per object: holding them would
    grow the heap the garbage collector scans."""
    while True:
        latest[i] = (await subscription.updates.get()).answers


async def _main(inputs: Inputs, trace: bool, log):
    tracer = Tracer(trace)
    setups = []
    service = engine = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if service is not None:
            await service.close()
            engine.close()
        tick = time.perf_counter()
        engine, service, subs = await _setup(inputs)
        setups.append(time.perf_counter() - tick)
    log(f"set-up {['%.3f' % s for s in setups]} s")

    probe = LayerProbe()
    #: Per monitor tick: registered, replayed, re-executed.
    ticks: list[tuple] = []
    if trace:
        monitor = engine._continuous  # the service's subscription monitor
        instrument(tracer, engine, "execute_batch", "engine", on_result=probe.on_batch)
        instrument(tracer, engine, "replace", "registry")
        instrument(tracer, monitor, "replace", "continuous")
        instrument(
            tracer, monitor, "tick", "continuous",
            on_result=lambda report, _: ticks.append(
                (report.registered, report.replayed, len(report.reexecuted))
            ),
        )
    last = [sub.initial.answers for sub in subs]
    followers = [
        asyncio.create_task(_follow(sub, last, i)) for i, sub in enumerate(subs)
    ]
    before = service.stats()
    gc.collect()  # the services closed above, so the run does not pay for them
    gc_clock = GcClock()
    gc_clock.start()
    run = await _open_loop(service, inputs, tracer, log)
    gc_clock.stop()
    run.gc_s = gc_clock.seconds
    after = service.stats()
    for task in followers:
        task.cancel()
    await asyncio.gather(*followers, return_exceptions=True)
    for i, sub in enumerate(subs):
        while not sub.updates.empty():
            last[i] = sub.updates.get_nowait().answers
    await service.close()
    engine.close()
    log(f"{run.attempted} requests, {run.answered} answered in {run.wall_s:.2f} s")
    return tracer, setups, (probe, ticks), before, after, run, last


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, log) -> dict:
    inputs = make_inputs(seed, seconds, size)
    settle_heap()
    tracer, setups, probes, before, after, observed, last = asyncio.run(
        _main(inputs, trace, log)
    )
    rss = peak_rss_mb()
    tick = time.perf_counter()
    failed = observed.failed + _check(inputs, observed, last, log)
    log(f"answers checked in {time.perf_counter() - tick:.2f} s")
    if trace:
        report = _per_layer_report(tracer, probes, before, after, observed)
    else:
        report = _end_to_end_report(setups, observed, rss)
    return {
        "report": report,
        "attempted": observed.attempted,
        "failed": failed,
        "tracer": tracer,
    }


def _check(inputs: Inputs, run: Run, last: list, log) -> int:
    """Replay the admitted updates on a fresh engine; return the
    number of replies and snapshots that differ from it."""
    reference = UncertainEngine(inputs.objects)
    failures = 0
    checks = sorted(run.checks, key=lambda c: c[0])
    pos = 0
    for m in range(len(run.mutations) + 1):
        while pos < len(checks) and checks[pos][0] == m:
            _, spec, got = checks[pos]
            if digest(reference.execute(spec)) != got:
                log(f"reply to {spec!r} after {m} updates differs from the reference")
                failures += 1
            pos += 1
        if m < len(run.mutations) and run.mutations[m] is not None:
            reference.replace(*run.mutations[m])
    want = reference.execute_batch(inputs.subscriptions).results
    # A subscription is pushed a snapshot only when its answer changes,
    # so its records may lag; its answer may not.
    for spec, answers, result in zip(inputs.subscriptions, last, want):
        if answers != result.answers:
            log(f"subscription {spec!r} ends on a stale snapshot")
            failures += 1
    reference.close()
    return failures


def _end_to_end_report(setups, run: Run, rss: float) -> Report:
    report = Report(END_TO_END)
    report.put("setup_s", median(setups), len(setups))
    report.put("throughput_qps", frac(run.answered, run.wall_s), run.answered)
    # One entry per engine call the service made for queries, keyed by
    # (its measured latency, its batch size).
    batch_ms = [s * 1e3 for s, size in run.engine_calls if size > 1]
    point_ms = [s * 1e3 for s, size in run.engine_calls if size == 1]
    report.tail("batch", batch_ms, "p50_ms", "p90_ms", 90)
    report.tail("point", point_ms, "p50_ms", "p95_ms", 95)
    report.tail("query", run.query_ms, "p50_ms", "p99_ms", 99)
    report.tail("update", run.update_ms, "p50_ms", "p95_ms", 95)
    report.put("peak_rss_mb", rss)
    return report


def _per_layer_report(tracer: Tracer, probes, before, after, run: Run) -> Report:
    probe, ticks = probes
    report = Report(PER_LAYER)
    for name in PER_LAYER:
        report.put(name, 0.0)
    probe.report_into(report)
    report.tail("service.wait", run.wait_ms, "p50_ms", "p99_ms", 99)
    batches_served = after["batches"] - before["batches"]
    report.put(
        "service.mean_batch",
        frac(after["coalesced_queries"] - before["coalesced_queries"], batches_served),
        batches_served,
    )
    engine_spans = [
        s for s in tracer.spans if s[5] is None and s[2] in ("engine", "registry", "continuous")
    ]
    report.put(
        "service.engine_busy_frac",
        frac(sum(s[4] - s[3] for s in engine_spans), run.wall_s),
    )
    report.put("service.shed", after["shed"] - before["shed"])
    report.put("service.deadline_misses", after["deadline_misses"] - before["deadline_misses"])
    ticks_ms = [(s[4] - s[3]) * 1e3 for s in tracer.spans if s[1] == "tick"]
    report.tail("continuous.tick", ticks_ms, "p50_ms", "p99_ms", 99)
    registered, replayed, reexecuted = (sum(c) for c in zip(*ticks or [(0, 0, 0)]))
    report.put("continuous.replay_frac", frac(replayed, registered))
    report.put("continuous.escape_frac", frac(reexecuted, registered))
    replace_ms = [
        (s[4] - s[3]) * 1e3 for s in tracer.spans if s[1] == "replace" and s[2] == "registry"
    ]
    report.put("registry.replace_ms", median(replace_ms), len(replace_ms))
    report.put("runtime.gc_frac", frac(run.gc_s, run.wall_s))
    report.put("gen.late_p99_ms", percentile(run.late_ms, 99), len(run.late_ms))
    report.put("trace.overhead_frac", frac(tracer.cost_s, run.wall_s))
    return report
