"""Traced CLI driver: ``python benchmarks/tracer.py --spans OUT.json -- <cli argv>``.

Wraps the public functions of each ``dischargekit`` module from outside,
patching the module attribute and every other module's binding of the same
function object (``scores.tokenize``, ``cli.tokenize``, ``relevance.words``
...), then calls ``dischargekit.cli.main(argv)``. Spans (name, start, end,
parent, items) are kept in memory and written as JSON when ``main`` returns;
the exit code is ``main``'s.

``summarize`` turns the span files of one CLI sequence into per-function
calls, total time, self time (duration minus the wrapped child spans) and
item counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, items from the result, argument whose distinct values
# are counted). Items: "words" -> TokenizedText.n_words, "len" -> len(result),
# "cells" -> filled ScoreTable cells, "pairs" -> scored (document, model)
# pairs, "selections" -> selected documents.
SPANS = (
    ("textprep", "tokenize", "words", None),
    ("textprep", "words", None, 0),
    ("relevance", "bleu4", None, 1),
    ("relevance", "rouge_1", None, 1),
    ("relevance", "rouge_2", None, 1),
    ("relevance", "rouge_l", None, 1),
    ("relevance", "meteor", None, 1),
    ("readability", "fkgl", None, None),
    ("readability", "dcrs", None, None),
    ("readability", "cli", None, None),
    ("scores", "compute_native_scores", "pairs", None),
    ("scores", "compute_factuality_proxies", "pairs", None),
    ("scores", "read_score_csv", "len", None),
    ("scores", "write_score_csv", None, None),
    ("des", "select_experts", "selections", None),
    ("des", "derive_des4_weights", None, None),
    ("analysis", "correlation_matrix", None, None),
    ("analysis", "pearson", None, None),
    ("corpus", "load_corpus", None, None),
    ("corpus", "load_candidates", None, None),
    ("corpus", "load_targets", None, None),
    ("corpus", "extract_targets", None, "hadm_id"),
    ("reorder", "split_sections", None, None),
    ("reorder", "rank_sections", None, None),
    ("reorder", "truncate_words", None, None),
    ("cli", "_write_manifest", None, None),
)
# Reference arguments of all five overlap metrics share one distinct-count.
_SHARED_DISTINCT = {f"relevance.{m}": "relevance.ref" for m in ("bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor")}


def _items(kind, result) -> int:
    # ``values == values`` is False exactly at the NaN (missing) cells.
    if kind == "words":
        return result.n_words
    if kind == "len":
        return len(result)
    if kind == "cells":
        return int((result.values == result.values).sum())
    if kind == "pairs":
        return int((result.values == result.values).any(axis=2).sum())
    if kind == "selections":
        return len(result.selections)
    return 0


class Recorder:
    """In-memory span store for one process; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.distinct: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, items=None, distinct=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = self.distinct[_SHARED_DISTINCT.get(name, name)] if distinct is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = kwargs.get(distinct) if isinstance(distinct, str) else args[distinct]
                seen.add(hash(key))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], _items(items, result) if result is not None else 0)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _rebind(original, replacement) -> None:
    """Point every dischargekit module binding of ``original`` at ``replacement``.

    Module-level dicts count as bindings too (``scores._REFERENCE_FUNCS``).
    """
    for name, module in list(sys.modules.items()):
        if name != "dischargekit" and not name.startswith("dischargekit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install(recorder: Recorder):
    """Wrap every traced function; returns the traced stem cache."""
    import importlib

    from dischargekit import cli as _cli  # noqa: F401  (imports every module)
    from dischargekit import relevance, scores

    for module_name, fn_name, items, distinct in SPANS:
        module = importlib.import_module(f"dischargekit.{module_name}")
        original = getattr(module, fn_name)
        _rebind(original, recorder.wrap(f"{module_name}.{fn_name}", original, items, distinct))

    table = scores.ScoreTable
    from_rows = table.__dict__["from_rows"].__func__
    table.from_rows = classmethod(recorder.wrap("scores.ScoreTable.from_rows", from_rows, "cells"))
    table.get = recorder.count("scores.ScoreTable.get", table.get)

    # The stem cache is rebuilt around a traced Porter stemmer: the cache
    # counts hits and misses, the inner span times the misses.
    cached = relevance.stem
    stem = functools.lru_cache(maxsize=cached.cache_parameters()["maxsize"])(
        recorder.wrap("stemmer.stem", cached.__wrapped__)
    )
    _rebind(cached, stem)
    return stem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the dischargekit arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    stem = install(recorder)
    from dischargekit import cli

    code = recorder.wrap("cli.main", cli.main)(cli_args)
    info = stem.cache_info()
    payload = {
        "argv": cli_args,
        "spans": recorder.spans,
        "counts": {**recorder.counts, "stemmer.stem.hits": info.hits, "stemmer.stem.misses": info.misses},
        "distinct": {name: len(values) for name, values in recorder.distinct.items()},
    }
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


def summarize(payloads: list[dict]) -> tuple[dict[str, dict[str, float]], dict[str, int], dict[str, int]]:
    """Per-span-name calls/total_s/self_s/items, plus summed counts and distinct counts."""
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
    counts: dict[str, int] = defaultdict(int)
    distinct: dict[str, int] = defaultdict(int)
    for payload in payloads:
        spans = payload["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, items) in enumerate(spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["items"] += items
        for name, value in payload["counts"].items():
            counts[name] += value
        for name, value in payload["distinct"].items():
            distinct[name] += value
    return stats, counts, distinct


if __name__ == "__main__":
    sys.exit(main())
