"""One benchmark process: set up as a CLI invocation would, then run rounds.

Usage: ``python3 worker.py CONFIG_JSON``.  Prints one JSON line.

Set-up is timed from the first line of a fresh process, before any other
import, through ``import tabnotate``, ``load_ontology``, ``load_manifest``
and backend construction, so every module the package pulls in is paid
inside it.  A round is one ``run_benchmark`` call over the whole manifest
(two for join-baselines, one per system), on a freshly loaded ontology so
that no state built by an earlier round is reused.  Rounds repeat until the
process's time slice would be exceeded.  With tracing on, rounds alternate
untraced and traced, so the same process gives the tracing overhead.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import model  # noqa: E402  (the stand-in; imports nothing from tabnotate)


def check_outcomes(per_item: list[dict], item_ids: list[str], expected: dict) -> list[str]:
    """Ids of items that did not finish, recorded an error, or differ from the oracle."""
    outcomes = {o["id"]: o for o in per_item}
    bad = []
    for item_id in item_ids:
        outcome = outcomes.get(item_id)
        if outcome is None or outcome["error"] is not None:
            bad.append(item_id)
        elif outcome["prediction"] != expected[item_id]:
            bad.append(item_id)
    return bad


def run_round(calls, item_ids: list[str], expected: dict) -> dict:
    """Time each ``(system, call)``; an exception aborts that call's items."""
    stats = {"items": 0, "attempted": 0, "failed": 0, "elapsed": 0.0, "errors": [],
             "anchored": 0, "throughput": []}
    for system, call in calls:
        stats["attempted"] += len(item_ids)
        start = time.perf_counter()
        try:
            report = call()
        except Exception as exc:  # an aborted run: every item is unfinished
            stats["elapsed"] += time.perf_counter() - start
            stats["failed"] += len(item_ids)
            stats["errors"].append(f"{system}: run aborted: {type(exc).__name__}: {exc}")
            continue
        stats["elapsed"] += time.perf_counter() - start
        per_item = report.to_dict()["per_item"]
        bad = check_outcomes(per_item, item_ids, expected[system])
        stats["items"] += len(per_item)
        stats["failed"] += len(bad)
        stats["anchored"] += sum(1 for o in per_item if o["anchored"])
        stats["throughput"].append(report.throughput)
        stats["errors"] += [f"{system}: {item_id}: prediction differs from the oracle "
                            "or the item failed" for item_id in bad[:5]]
    return stats


def _stub_stats(url: str) -> dict:
    import urllib.request

    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(f"{url}/stats", timeout=10) as response:
        return json.loads(response.read())


def layer_metrics(tracer, stats: dict, extra: dict) -> dict:
    """Per-layer figures for one traced round."""
    durations, self_times = tracer.durations(), tracer.self_times()
    counts, amounts = tracer.counts, tracer.amounts
    items = stats["attempted"] or 1

    def total(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def per(x, n):
        return x / n if n else 0.0

    nearest, builds, completes = calls("core.nearest_term"), calls("prompt.build"), calls("backend.complete")
    jaccard, levenshtein = calls("evaluate.jaccard_join"), calls("evaluate.levenshtein_join")
    metrics = {
        "core.nearest_term.calls": nearest,
        "core.nearest_term.ms_per_call": per(total("core.nearest_term"), nearest) * 1e3,
        "core.nearest_term.candidates_scored": amounts["core.nearest_term.nested"],
        "core.nearest_term.distinct_label_ratio": per(len(tracer.labels), nearest),
        "core.label_similarity.calls": counts["core.label_similarity.calls"],
        "core.edit_distance.calls": counts["core.edit_distance.calls"],
        "core.read_csv.s": total("core.read_csv"),
        "core.read_csv.mb": amounts["core.read_csv.chars"] / 1e6,
        "core.sample_rows.s": total("core.sample_rows"),
        "prompt.build.calls": builds,
        "prompt.build.ms_per_call": per(total("prompt.build"), builds) * 1e3,
        "prompt.assemble.calls_per_prompt": per(counts["prompt.assemble.calls"], builds),
        "prompt.chars": per(amounts["prompt.chars"], counts["prompt.sent"]),
        "prompt.rows_kept_ratio": per(amounts["prompt.rows_kept"], amounts["prompt.rows_sampled"]),
        "backend.complete.calls": completes,
        "backend.complete.s": total("backend.complete"),
        "backend.complete.failures": counts["backend.complete.failures"],
        "backend.prompt_tokens_per_item": per(amounts["backend.prompt_tokens"], items),
        "backend.completion_tokens_per_item": per(amounts["backend.completion_tokens"], items),
        # Threads add costs in varying order; keep the digits that repeat.
        "backend.cost_usd_per_item": float(f"{per(amounts['backend.cost_usd'], items):.10g}"),
        "backend.concurrency": per(total("backend.complete"), stats["elapsed"]),
        "harness.parse.calls": counts["harness.parse.calls"],
        "harness.parse.failures": counts["harness.parse.failures"],
        "harness.repair.calls": counts["harness.repair.calls"],
        "harness.anchor.calls": counts["harness.anchor.calls"],
        "harness.reask.calls": counts["harness.reask.calls"],
        "harness.calls_per_item": per(completes, items),
        "harness.anchored_share": per(stats["anchored"], items),
        "evaluate.run_benchmark.self_s": self_times.get("evaluate.run_benchmark", 0.0),
        "evaluate.jaccard_join.ms_per_call": per(total("evaluate.jaccard_join"), jaccard) * 1e3,
        "evaluate.jaccard_join.pairs_scored": amounts["evaluate.jaccard_join.pairs_scored"],
        "evaluate.jaccard_join.cells_read": amounts["evaluate.jaccard_join.cells_read"],
        "evaluate.levenshtein_join.ms_per_call": per(total("evaluate.levenshtein_join"), levenshtein) * 1e3,
        "evaluate.metered_items_per_s": sum(stats["throughput"]) / max(1, len(stats["throughput"])),
    }
    for kind in ("table_class", "column_type", "join"):
        name = f"harness.{kind}"
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = total(name)
        metrics[f"{name}.self_s"] = self_times.get(name, 0.0)
    posts = extra.get("posts", 0)
    metrics["backend.http.posts"] = posts
    metrics["backend.http.retries"] = max(0, posts - completes) if posts else 0
    metrics["backend.http.overhead_ms"] = (
        per(total("backend.complete") - extra["service_s"], posts) * 1e3 if posts else 0.0
    )
    metrics["bench.model_s"] = extra["model_s"]
    return metrics


def _traced_round(tracer, backend, calls, item_ids, expected, cfg, round_index) -> dict:
    """One round with every layer wrapped; adds ``layers`` and writes spans."""
    url = cfg["url"]
    tracer.reset()
    before = _stub_stats(url) if url else None
    model_before = getattr(backend, "model_s", 0.0)
    tracer.install()
    undo = tracer.wrap_backend(backend) if backend is not None else None
    rooted = [(name, tracer.rooted("evaluate.run_benchmark", call)) for name, call in calls]
    try:
        stats = run_round(rooted, item_ids, expected)
    finally:
        tracer.uninstall()
        if undo is not None:
            undo()
    if before is not None:
        after = _stub_stats(url)
        service_s = after["service_s"] - before["service_s"]
        extra = {"posts": after["posts"] - before["posts"], "service_s": service_s,
                 "model_s": service_s}
    else:
        extra = {"model_s": getattr(backend, "model_s", 0.0) - model_before}
    stats["layers"] = layer_metrics(tracer, stats, extra)
    with open(cfg["spans"], "a", encoding="utf-8") as handle:
        tracer.write_spans(handle, round_index)
    return stats


def _load_ontology(tabnotate, path: Path):
    start = time.perf_counter()
    text = path.read_text(encoding="utf-8")
    ontology = tabnotate.load_ontology(text, tabnotate.OntologyFormat.TAB_SEPARATED_KIND_IRI)
    return ontology, time.perf_counter() - start


def main(cfg: dict) -> dict:
    data = Path(cfg["data"])
    ontology_path = data / "ontology.tsv"
    workload = cfg["workload"]

    import tabnotate

    ontology, load_ontology_s = (
        _load_ontology(tabnotate, ontology_path) if ontology_path.exists() else (None, 0.0)
    )
    manifest_start = time.perf_counter()
    examples = tabnotate.load_manifest(data / "manifest.jsonl")
    load_manifest_s = time.perf_counter() - manifest_start
    if workload == "live-http":
        endpoint = tabnotate.HttpEndpoint(url=f"{cfg['url']}/v1/chat/completions", model="stub")
        backend = tabnotate.HttpBackend(endpoint)
    elif workload == "join-baselines":
        backend = None
    else:
        # The stand-in reads its answer table, as a scripted backend reads
        # its transcript.
        answers = json.loads((data / "answers.json").read_text(encoding="utf-8"))
        backend = model.StandInModel(answers)
    setup_s = time.perf_counter() - START
    expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
    description = json.loads((data / "workload.json").read_text(encoding="utf-8"))

    if not Path(tabnotate.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tabnotate was imported from {tabnotate.__file__}, not {SRC}")

    config = tabnotate.PipelineConfig()
    if workload == "wide-sample":
        strategy = tabnotate.SamplingStrategy(tabnotate.SamplingMode.SEEDED_RANDOM, cfg["seed"])
        prompt_config = tabnotate.PromptConfig(sample_k=description["sample_rows"], strategy=strategy)
        config = tabnotate.PipelineConfig(prompt_config=prompt_config)
    systems = (
        [tabnotate.System.JACCARD, tabnotate.System.LEVENSHTEIN]
        if workload == "join-baselines"
        else [tabnotate.System.MODEL]
    )
    item_ids = [ex.id for ex in examples]

    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer(tabnotate)

    rounds, ontology_loads = [], [load_ontology_s]
    began = time.perf_counter()
    while True:
        if rounds and ontology is not None:
            ontology, seconds = _load_ontology(tabnotate, ontology_path)
            ontology_loads.append(seconds)
        calls = [
            (system.value, functools.partial(
                tabnotate.run_benchmark, examples, system, ontology=ontology,
                backend=backend, config=config, jobs=cfg["jobs"],
            ))
            for system in systems
        ]
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            stats = _traced_round(tracer, backend, calls, item_ids, expected, cfg, len(rounds))
        else:
            stats = run_round(calls, item_ids, expected)
        stats["traced"] = traced
        rounds.append(stats)
        spent = time.perf_counter() - began
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and spent + stats["elapsed"] > cfg["slice_s"]:
            break

    return {
        "setup_s": setup_s,
        "load_ontology_s": sorted(ontology_loads)[len(ontology_loads) // 2],
        "load_manifest_s": load_manifest_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "absent": tracer.absent if tracer is not None else [],
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
