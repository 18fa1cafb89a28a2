"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 25 --trace 0

Workloads (all inputs are generated from ``--seed`` before set-up):

* ``cold_sweep`` — closed loop on ``UncertainEngine``: rounds of one
  25-spec C-PNN ``execute_batch`` and 5 single ``execute()`` calls at
  fresh points, each single call followed by one dead-reckoning
  ``replace`` report (``sweeps.py``).
* ``sharded_sweep`` — the identical stream on ``ShardedEngine``
  (``executor="auto"``), isolating the executor layer.
* ``lbs_service`` — open loop through ``QueryService``: Poisson
  C-PNN/C-kNN/C-range queries and ``replace`` updates beside 48
  continuous subscriptions (``lbs.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (phase times and counts from the results the engine
returns, spans around the calls into each layer written to
``.perfbench/trace-<workload>-<seed>.jsonl``).  What the metrics mean
on each workload:

* ``setup_s`` — engine construction through warm-up (pool spawn,
  subscriptions) to the first timed op; median of five set-ups.  The
  benchmark's own inputs are generated, collected and frozen
  (``gc.freeze``) before the first set-up, so the collector does not
  scan them; the collector time left in the run is the per-layer
  ``runtime.gc_frac``.
* ``throughput_qps`` — specs answered per second of the timed loop
  (the sweeps) or of the schedule (the service).
* ``batch_*`` — engine calls answering more than one spec: the sweeps'
  ``execute_batch``; the service's coalesced micro-batches.
* ``point_*`` — engine calls answering one spec: the sweeps'
  ``execute()``; the service's micro-batches of one.
* ``query_*`` — per spec, from when it was due to its answer.
* ``update_*`` — per ``replace``, from when it was due to its
  acknowledgement (on the service this includes the monitor tick).
* ``peak_rss_mb`` — peak memory of this process plus its largest
  engine worker.

Failed, shed, timed-out and wrong answers are counted in ``failed``
against ``attempted`` (``failed_frac`` in the printed report).  The
last line of standard output is the JSON result; everything before it
is the host stamp and a readable report with sample counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_sweep", "sharded_sweep", "lbs_service")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper, which the process
    executor's shared memory starts, and wait for it to end, so no
    process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks the data for the self-test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no engine sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))

    from common import host_stamp

    stamp = host_stamp(ROOT, args.seed)
    print(json.dumps({"host": stamp}), flush=True)

    if args.workload == "lbs_service":
        import lbs as workload
    else:
        import sweeps as workload
    out = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, log
    )
    stop_resource_tracker()
    report = out["report"]
    missing = report.missing()
    if missing:
        log(f"metrics not produced: {missing}")
        return 3

    attempted, failed = out["attempted"], out["failed"]
    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        out["tracer"].dump(
            trace_path, {"host": stamp, "workload": args.workload, "metrics": report.values}
        )
        log(f"{len(out['tracer'].spans)} spans written to {trace_path}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(f"  {'failed_frac':<30} {failed / max(attempted, 1):>14.6g}  "
          f"(failed={failed}, attempted={attempted})")
    print("\n".join(report.lines()))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report.metrics(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
