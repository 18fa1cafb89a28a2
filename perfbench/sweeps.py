"""``cold_sweep`` and ``sharded_sweep``: closed-loop C-PNN rounds.

One client sends a round, waits for every answer, then sends the next.
A round is one ``execute_batch`` of 25 fresh C-PNN specs (P = 0.35,
Δ = 0.01), then 5 fresh single ``execute()`` specs, each followed by
one dead-reckoning ``replace`` report.  The reports give the update
metrics; interleaving them makes every single query pay the same
deferred index maintenance, instead of the first of each round paying
for all of them.  They follow the repo's streaming model
(``StreamingWorkload``): each round is one tick, in which every true
position drifts by N(0, drift_sigma) at that model's default and five
objects report, re-centring their interval on their true position.
Fresh points keep every engine cache cold, so the initialization layer
dominates.  The two workloads
send the identical input stream; only the engine differs
(``UncertainEngine`` vs ``ShardedEngine``, both at default config), so
their difference is the executor layer.

On ``cold_sweep`` the client's thread, which also runs the engine,
steps to the next CPU every round (``CpuRotation``), so a run reads
the average speed of the host's CPUs rather than that of the one the
scheduler happened to keep it on.

The data is the fixed 4,000-object 1-D Long Beach surrogate
(``mean_length=400``, about 170 candidates per query); the seed draws
the query points and the update stream.

Answers are checked outside the timed loop by a separate reference
``UncertainEngine`` that replays the same updates:

* one spec per round against Definition 1 on exact probabilities
  (``pnn``): every object with p ≥ P is returned and every returned
  object has p ≥ P − Δ;
* on ``sharded_sweep``, every sixteenth round's whole batch (answers and
  records, bit for bit) against the single engine — the cross-executor
  identity contract.

The traced run (``--trace 1``) reads the per-layer numbers from each
timed ``execute_batch``'s ``BatchResult`` (``LayerProbe``), and
additionally rebuilds each round's C-PNN pipeline from public pieces —
``BatchMbrFilter``, then ``distance_distribution`` and
``SubregionTable``, then ``VerifierChain.run``, then
``Refiner.refine_object`` — with one span per layer call in the trace
file, and asserts its answers equal ``execute_batch``'s.
"""

from __future__ import annotations

import gc
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    END_TO_END,
    PER_LAYER,
    SETUP_REPEATS,
    CpuRotation,
    GcClock,
    LayerProbe,
    Report,
    Tracer,
    frac,
    median,
    peak_rss_mb,
    settle_heap,
)
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, Label
from repro.core.verifiers import default_chain
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.experiments.workloads import StreamingWorkload
from repro.index.filtering import BatchMbrFilter
from repro.uncertainty.objects import UncertainObject

BATCH = 25
POINTS = 5
UPDATES = POINTS  # one report after each single query
THRESHOLD = 0.35
TOLERANCE = 0.01
MEAN_LENGTH = 400.0
#: Per-tick drift of every true position: the dead-reckoning model's
#: own default, so the reports move objects as the repo's stream does.
DRIFT_SIGMA = inspect.signature(StreamingWorkload).parameters["drift_sigma"].default
#: Every this many rounds, ``sharded_sweep`` checks a whole batch
#: bit for bit against the single engine.
IDENTITY_EVERY = 16
#: Rounds generated per second of run time: about twice what a 2-core
#: host completes.  A run that uses them all up fails rather than
#: reuse points.
ROUNDS_PER_SECOND = {"full": 10, "tiny": 100}

OBJECTS = {"full": 4_000, "tiny": 300}


@dataclass
class Round:
    batch: list
    points: list
    updates: list


@dataclass
class Outcome:
    """What one timed round returned (kept for the checks)."""

    batch_answers: list | None = None
    point_answers: list = field(default_factory=list)
    digests: list | None = None


def make_inputs(seed: int, seconds: float, size: str):
    """The dataset, a warm-up round and the timed rounds for ``seed``.

    The warm-up round draws from the same stream before the timed
    rounds, so its points are disjoint from theirs.
    """
    objects = long_beach_surrogate(n=OBJECTS[size], mean_length=MEAN_LENGTH)
    rng = np.random.default_rng(seed)

    def specs(n):
        return [
            CPNNQuery(float(q), threshold=THRESHOLD, tolerance=TOLERANCE)
            for q in rng.uniform(*LONG_BEACH_DOMAIN, size=n)
        ]

    warmup = Round(specs(BATCH), specs(POINTS), [])
    lows = np.array([float(o.mbr.lows[0]) for o in objects])
    highs = np.array([float(o.mbr.highs[0]) for o in objects])
    positions, halfwidths = (lows + highs) / 2, (highs - lows) / 2
    rounds = []
    for _ in range(max(4, int(seconds * ROUNDS_PER_SECOND[size]))):
        positions = np.clip(
            positions + rng.normal(0.0, DRIFT_SIGMA, size=len(positions)),
            *LONG_BEACH_DOMAIN,
        )
        updates = []
        for j in rng.choice(len(objects), size=UPDATES, replace=False):
            key = objects[j].key
            new = UncertainObject.uniform(
                key,
                float(positions[j] - halfwidths[j]),
                float(positions[j] + halfwidths[j]),
            )
            new.mbr  # noqa: B018 -- build the cached MBR outside timing
            updates.append((key, new))
        rounds.append(Round(specs(BATCH), specs(POINTS), updates))
    return objects, warmup, rounds


def digests(batch) -> list[int]:
    """Per spec, a hash of everything it answers.  Hashes rather than
    the records themselves are kept, so the checks do not grow the heap
    the garbage collector scans during the run."""
    return [
        hash(
            (
                r.answers,
                r.fmin,
                tuple((x.key, x.label, x.lower, x.upper, x.exact) for x in r.records),
            )
        )
        for r in batch.results
    ]


def definition1_holds(probabilities: dict, answers, spec) -> bool:
    """Definition 1: every object with p ≥ P is returned, and every
    returned object has p ≥ P − Δ (1e-9 absorbs float rounding)."""
    returned = set(answers)
    for key, p in probabilities.items():
        if p >= spec.threshold + 1e-9 and key not in returned:
            return False
    return all(
        probabilities.get(key, 0.0) >= spec.threshold - spec.tolerance - 1e-9
        for key in returned
    )


class TracedPipeline:
    """The C-PNN pipeline rebuilt from public per-layer pieces, with a
    span around each layer call: the traced run's answer check.
    Mirrors the engine's updates so it answers over the same objects."""

    def __init__(self, objects, tracer: Tracer) -> None:
        config = EngineConfig()
        self._tracer = tracer
        self._filter = BatchMbrFilter(objects)
        self._row = {obj.key: i for i, obj in enumerate(objects)}
        self._chain = default_chain()
        self._grid = config.grid_refinement
        self._pad = config.bound_pad
        self._margin = config.quadrature_margin
        self._order = config.refinement_order

    def replace(self, key, obj) -> None:
        self._filter.replace_at(self._row[key], obj)

    def answer(self, specs) -> list[tuple]:
        span = self._tracer.span
        answers = []
        with span("pnn_batch", "engine"):
            with span("BatchMbrFilter", "filter"):
                filtered = self._filter([s.q for s in specs])
            for spec, fr in zip(specs, filtered):
                with span("distance_distribution+SubregionTable", "init"):
                    table = SubregionTable(
                        [obj.distance_distribution(spec.q) for obj in fr.candidates],
                        grid_refinement=self._grid,
                    )
                    states = CandidateStates(table.keys, pad=self._pad)
                    refiner = Refiner(
                        table, quadrature_margin=self._margin, order=self._order
                    )
                with span("VerifierChain.run", "verify"):
                    self._chain.run(table, states, spec)
                with span("Refiner.refine_object", "refine"):
                    for i in states.unknown_indices():
                        refiner.refine_object(
                            int(i), states, spec, use_verifier_slices=True
                        )
                answers.append(
                    tuple(
                        key
                        for i, key in enumerate(table.keys)
                        if states.label_of(i) is Label.SATISFY
                    )
                )
        return answers


def _make_engine(workload: str, objects):
    if workload == "sharded_sweep":
        return ShardedEngine(list(objects))
    return UncertainEngine(list(objects))


def _setup(workload: str, objects, warmup: Round, tracer: Tracer):
    """Construct the engine and run the warm-up round; returns the
    engine, the set-up seconds and the pool spawn seconds."""
    tick = time.perf_counter()
    engine = _make_engine(workload, objects)
    spawn = 0.0
    if tracer.enabled and isinstance(engine, ShardedEngine):
        with tracer.span("warm_executor", "executor"):
            spawn_tick = time.perf_counter()
            engine.warm_executor()
            spawn = time.perf_counter() - spawn_tick
    engine.execute_batch(warmup.batch)
    for spec in warmup.points:
        engine.execute(spec)
    return engine, time.perf_counter() - tick, spawn


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, log) -> dict:
    tracer = Tracer(trace)
    objects, warmup, rounds = make_inputs(seed, seconds, size)
    sharded = workload == "sharded_sweep"
    settle_heap()

    setups = []
    engine = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if engine is not None:
            engine.close()
        engine, seconds_taken, spawn_s = _setup(workload, objects, warmup, tracer)
        setups.append(seconds_taken)
    log(f"set-up {['%.3f' % s for s in setups]} s")

    probe = LayerProbe()
    pipeline = TracedPipeline(objects, tracer) if trace else None
    # The traced sharded run answers every batch on a single engine
    # too: executor overhead is the wall-time difference, and the
    # engine layer's unattributed time is read there, because a
    # sharded batch's phase times add up across workers.
    twin = twin_probe = None
    if trace and sharded:
        twin, _, _ = _setup("cold_sweep", objects, warmup, Tracer(False))
        twin_probe = LayerProbe()
    batch_layer = "executor" if sharded else "engine"

    batch_ms, point_ms, update_ms, overhead_ms = [], [], [], []
    outcomes: list[Outcome] = []
    attempted = failed = answered = 0

    gc.collect()  # the engines closed above, so the run does not pay for them
    # The single engine runs on this one thread; the sharded engine's
    # workers share the CPUs with it, so it stays unpinned.
    rotation = CpuRotation(enabled=not sharded)
    gc_clock = GcClock()
    gc_clock.start()
    start = time.perf_counter()
    deadline = start + seconds
    for r, rnd in enumerate(rounds):
        if time.perf_counter() >= deadline:
            break
        rotation.step(r)
        outcome = Outcome()
        attempted += BATCH + POINTS + UPDATES
        try:
            with tracer.span("execute_batch", batch_layer, req=r):
                tick = time.perf_counter()
                batch = engine.execute_batch(rnd.batch)
                wall = time.perf_counter() - tick
            batch_ms.append(wall * 1e3)
            answered += BATCH
            outcome.batch_answers = list(batch.answers)
        except Exception as exc:  # noqa: BLE001 -- counted, run continues
            log(f"round {r}: execute_batch failed: {exc!r}")
            failed += BATCH
            batch = None
        for spec, (key, obj) in zip(rnd.points, rnd.updates):
            try:
                with tracer.span("execute", "engine", req=r):
                    tick = time.perf_counter()
                    result = engine.execute(spec)
                    point_ms.append((time.perf_counter() - tick) * 1e3)
                answered += 1
                outcome.point_answers.append(result.answers)
            except Exception as exc:  # noqa: BLE001
                log(f"round {r}: execute failed: {exc!r}")
                failed += 1
                outcome.point_answers.append(None)
            try:
                with tracer.span("replace", "registry", req=r):
                    tick = time.perf_counter()
                    engine.replace(key, obj)
                    update_ms.append((time.perf_counter() - tick) * 1e3)
            except Exception as exc:  # noqa: BLE001
                log(f"round {r}: replace failed: {exc!r}")
                failed += 1
        if sharded and batch is not None and r % IDENTITY_EVERY == 0:
            outcome.digests = digests(batch)
        outcomes.append(outcome)

        if trace and batch is not None:
            probe.on_batch(batch, wall)
            if pipeline.answer(rnd.batch) != outcome.batch_answers:
                log(f"round {r}: rebuilt pipeline disagrees with execute_batch")
                failed += 1
            for key, obj in rnd.updates:
                pipeline.replace(key, obj)
            if twin is not None:
                tick = time.perf_counter()
                single = twin.execute_batch(rnd.batch)
                single_s = time.perf_counter() - tick
                twin_probe.on_batch(single, single_s)
                overhead_ms.append((wall - single_s) * 1e3)
                if digests(single) != digests(batch):
                    log(f"round {r}: sharded batch differs from the single engine")
                    failed += BATCH
                for spec, (key, obj) in zip(rnd.points, rnd.updates):
                    twin.execute(spec)
                    twin.replace(key, obj)
    loop_s = time.perf_counter() - start
    gc_clock.stop()
    rotation.stop()
    log(f"{len(outcomes)} rounds in {loop_s:.2f} s")
    if len(outcomes) == len(rounds) and loop_s < seconds:
        raise RuntimeError(
            f"all {len(rounds)} generated rounds ran in {loop_s:.1f} s of {seconds} s: "
            "raise ROUNDS_PER_SECOND"
        )

    executor_stats = engine.stats()["executor"]
    engine.close()
    if twin is not None:
        twin.close()
    rss = peak_rss_mb()

    tick = time.perf_counter()
    failed += _check(objects, rounds, outcomes, sharded, log)
    log(f"answers checked in {time.perf_counter() - tick:.2f} s")

    if trace:
        report = Report(PER_LAYER)
        for name in PER_LAYER:
            report.put(name, 0.0)
        probe.report_into(report)
        if sharded:
            report.put(
                "engine.unattributed_ms",
                median(twin_probe.unattributed_ms()),
                len(twin_probe.batch_ms),
            )
            report.put("executor.spawn_s", spawn_s)
            report.put("executor.overhead_ms", median(overhead_ms), len(overhead_ms))
            for counter in ("worker_failures", "inline_fallbacks", "shm_fallbacks"):
                report.put(f"executor.{counter}", executor_stats.get(counter, 0))
        report.put("registry.replace_ms", median(update_ms), len(update_ms))
        report.put("runtime.gc_frac", frac(gc_clock.seconds, loop_s))
        report.put("trace.overhead_frac", frac(tracer.cost_s, loop_s))
    else:
        report = Report(END_TO_END)
        report.put("setup_s", median(setups), len(setups))
        report.put("throughput_qps", answered / loop_s, answered)
        report.tail("batch", batch_ms, "p50_ms", "p90_ms", 90)
        report.tail("point", point_ms, "p50_ms", "p95_ms", 95)
        # Closed loop: a spec is due when its call starts and answered
        # when the call returns, so batch specs share their batch's
        # latency; the count printed is that of independent calls.
        per_spec = [ms for ms in batch_ms for _ in range(BATCH)] + point_ms
        calls = len(batch_ms) + len(point_ms)
        report.tail("query", per_spec, "p50_ms", "p99_ms", 99, calls)
        report.tail("update", update_ms, "p50_ms", "p95_ms", 95)
        report.put("peak_rss_mb", rss)
    return {
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
    }


def _check(objects, rounds, outcomes, sharded: bool, log) -> int:
    """Replay the run on a reference engine; return failed answers."""
    reference = UncertainEngine(list(objects))
    failures = 0
    for r, outcome in enumerate(outcomes):
        rnd = rounds[r]
        if outcome.digests is not None:
            want = digests(reference.execute_batch(rnd.batch))
            bad = sum(a != b for a, b in zip(outcome.digests, want))
            if bad:
                log(f"round {r}: {bad} sharded answers differ from the single engine")
                failures += bad
        # One spec per round: a batch spec on even rounds, a single spec
        # on odd ones.  A single spec saw the reports sent before it.
        if r % 2 == 0:
            j, spec = 0, rnd.batch[r % BATCH]
            answers = (outcome.batch_answers or [None] * BATCH)[r % BATCH]
        else:
            j, spec = r % POINTS, rnd.points[r % POINTS]
            answers = outcome.point_answers[j]
        for key, obj in rnd.updates[:j]:
            reference.replace(key, obj)
        if answers is not None and not definition1_holds(
            reference.pnn(spec.q), answers, spec
        ):
            log(f"round {r}: answer to q={spec.q!r} breaks Definition 1")
            failures += 1
        for key, obj in rnd.updates[j:]:
            reference.replace(key, obj)
    reference.close()
    return failures
