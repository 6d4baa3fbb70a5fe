"""Benchmark entry point for tabnotate.

Usage::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (untimed), then runs
``WORKERS`` fresh worker processes one after another, each for an equal
share of ``--seconds``.  Each worker times its own set-up and then rounds of
``run_benchmark`` over the manifest, checking every prediction against the
oracle's expected prediction.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics (from alternating
traced and untraced rounds) with ``--trace 1``.  Exit status is 0 only when
every item finished and matched its oracle and, with ``--trace 1``, every
traced count repeated across workers.  Metric names and units come from
``BENCHMARK.json``.

Generated inputs live under ``.bench_build/tabnotate-bench/`` and are
removed at the end; traced runs leave their spans and metrics under
``.bench_build/tabnotate-bench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tabnotate-bench"
WORKERS = 5
# Every run must end well inside three minutes, even for a very slow program.
DEADLINE_S = 160

# Per-layer times are medians over traced rounds; everything else is a count
# that must repeat exactly.
TIMED_UNITS = {"s", "ms"}
TIMED_EXTRA = {"backend.concurrency", "evaluate.metered_items_per_s"}


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def is_timed(name: str, unit: str) -> bool:
    return unit in TIMED_UNITS or name in TIMED_EXTRA


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_stub(answers: Path):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), str(answers)],
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
    )
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        ready = selector.select(timeout=30)
    line = proc.stdout.readline() if ready else ""
    if not line.strip().isdigit():
        _stop(proc)
        raise RuntimeError("the loopback stub did not report a port")
    return proc, f"http://127.0.0.1:{int(line)}"


def _stop(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _run_workers(args, data: Path, trace_dir: Path, url: str | None, deadline: float) -> list[dict]:
    jobs = len(os.sched_getaffinity(0)) if args.workload == "live-http" else 1
    results = []
    for index in range(WORKERS):
        cfg = {
            "workload": args.workload,
            "seed": args.seed,
            "data": str(data),
            "slice_s": args.seconds / WORKERS,
            "trace": bool(args.trace),
            "url": url,
            "jobs": jobs,
            "spans": str(trace_dir / f"spans-w{index}.jsonl"),
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            env=_worker_env(),
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {index} exited with status {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def _rate(r: dict) -> float:
    return r["items"] / r["elapsed"] if r["elapsed"] > 0 else 0.0


def end_to_end(results: list[dict]) -> dict:
    rounds = [r for w in results for r in w["rounds"] if not r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "items_per_s": statistics.median(_rate(r) for r in rounds),
        "setup_s": statistics.median(w["setup_s"] for w in results),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in results),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(results: list[dict], units: dict) -> tuple[dict, bool]:
    """Per-layer metrics and whether every count repeated across workers.

    Each worker is a fresh process on the same inputs, so its i-th traced
    round must give the same counts as the first worker's i-th traced round.
    Rounds are matched by index, so a cache that lives across the rounds of
    one process does not break the check.
    """
    traced = [[r for r in w["rounds"] if r["traced"]] for w in results]
    untraced = [r for w in results for r in w["rounds"] if not r["traced"]]
    reference = traced[0]
    metrics, repeat = {}, True
    for name in reference[0]["layers"]:
        if is_timed(name, units.get(name, "")):
            metrics[name] = statistics.median(r["layers"][name] for rs in traced for r in rs)
        else:
            metrics[name] = reference[0]["layers"][name]
            repeat = repeat and all(
                mine["layers"][name] == ref["layers"][name]
                for rs in traced[1:] for mine, ref in zip(rs, reference)
            )
    metrics["core.load_ontology.s"] = statistics.median(w["load_ontology_s"] for w in results)
    metrics["evaluate.load_manifest.s"] = statistics.median(w["load_manifest_s"] for w in results)
    traced_rate = statistics.median(_rate(r) for rs in traced for r in rs)
    untraced_rate = statistics.median(_rate(r) for r in untraced)
    metrics["bench.trace_overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    return metrics, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    for needed in (ROOT / "src" / "tabnotate" / "__init__.py", ROOT / "tests" / "reference.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a tabnotate "
                  "checkout", file=sys.stderr)
            return 2
    from generate import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    data = BUILD / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_dir = BUILD / "traces" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    stub = None
    try:
        description = generate(args.workload, args.seed, data)
        url = None
        if args.workload == "live-http":
            stub, url = _start_stub(data / "answers.json")
        results = _run_workers(args, data, trace_dir, url, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if stub is not None:
            _stop(stub)
        shutil.rmtree(data, ignore_errors=True)

    rounds = [r for w in results for r in w["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for error in sorted({e for r in rounds for e in r["errors"]})[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    repeat = True
    if args.trace:
        units = metric_units("per_layer")
        values, repeat = per_layer(results, units)
        absent = results[0]["absent"]
        summary = {"workload": description, "metrics": values, "counts_repeat": repeat,
                   "absent": absent}
        (trace_dir / "metrics.json").write_text(json.dumps(summary, indent=1) + "\n")
        print(f"trace: spans and metrics in {trace_dir.relative_to(ROOT)}")
        print(f"trace: absent layers: {', '.join(absent) or 'none'}")
        if not repeat:
            print("check failed: traced counts differ between workers", file=sys.stderr)
    else:
        units = metric_units("end_to_end")
        values = end_to_end(results)
        untraced = [r for r in rounds if not r["traced"]]
        print(f"{args.workload} seed={args.seed}: "
              + ", ".join(f"{k}={values[k]:.6g} {u}" for k, u in units.items())
              + f", error_rate={failed / attempted:.6g} ratio ({failed} of {attempted} items; "
              f"{len(untraced)} rounds, {len(results)} set-ups)")
    if values.keys() != units.keys():
        print(f"error: computed metrics {sorted(values.keys() ^ units.keys())} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    correct = failed == 0 and repeat
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
