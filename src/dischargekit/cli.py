"""Command-line pipeline: extract, score, select, reorder, evaluate, correlate, simulate.

Every subcommand is deterministic given its inputs and flags, works purely
on local files, and writes a manifest (command, config hash, input digests)
next to its outputs. Exit codes: 0 success, 1 user or data error, 2
internal error or a command-line usage error reported by argparse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from functools import reduce
from operator import add
from pathlib import Path

# Only textprep and corpus are imported at module level; each subcommand imports
# the other modules it uses, so extract and reorder never load the scoring modules.
from .textprep import word_count
from . import __version__, corpus
from .corpus import TargetKind

USER_ERRORS = (ValueError, OSError)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(args: argparse.Namespace) -> str:
    # --threads is left out: no output depends on it.
    payload = {k: str(v) for k, v in sorted(vars(args).items()) if k not in ("func", "threads")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _write_manifest(
    out_path: Path, command: str, args: argparse.Namespace, inputs: list, counts: dict | None = None
) -> None:
    manifest = {
        "command": command,
        "config_hash": _config_hash(args),
        "inputs": {str(p): _sha256(p) for p in sorted(inputs, key=str)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    if counts is not None:
        manifest["counts"] = counts
    if out_path.is_dir():
        target = out_path / "manifest.json"
    else:
        target = out_path.with_name(out_path.name + ".manifest.json")
    corpus.write_json(target, manifest)


def _read_submission(path) -> list[tuple[str, str]]:
    header = ("hadm_id", "text")
    records = corpus.read_csv_records(path, header, corpus.CorpusError, key=header[:1])
    return [(hadm_id, text) for _, (hadm_id, text) in records]


def _write_submission(path, rows) -> None:
    corpus.write_csv_records(path, ("hadm_id", "text"), rows)


def _read_overall_csv(path, target=None) -> dict[TargetKind, dict[tuple[str, str], float]]:
    """(hadm_id, model_id) -> overall per target; every row is checked, only ``target``'s kept if given."""
    out: dict[TargetKind, dict[tuple[str, str], float]] = {}
    header = ("hadm_id", "model_id", "target", "value")
    records = corpus.read_csv_records(path, header, corpus.ScoreError, key=header[:3])
    for rowno, (hadm_id, model_id, kind, raw) in records:
        kind, value = corpus.parse_score_cell(path, rowno, kind, raw)
        if target is None or kind is target:
            out.setdefault(kind, {})[(hadm_id, model_id)] = value
    return out


def _load_score_tables(paths, targets, documents=None, models=None) -> dict:
    """One ScoreTable per target, filled from the score CSVs in one pass over each."""
    from . import tables

    builder = tables.ScoreTableBuilder(targets, documents, models)
    for path in paths:
        builder.read_csv(path)
    return builder.tables()


def _mean(values) -> float:
    """Left-to-right float mean (0.0 when empty); ``sum()`` compensates from
    Python 3.12 on, which would move the last bit between interpreters."""
    values = list(values)
    return reduce(add, values, 0.0) / max(len(values), 1)


# --- subcommands --------------------------------------------------------------


def cmd_extract(args) -> int:
    headers = corpus.load_known_headers(args.headers) if args.headers else None
    summaries = corpus.load_corpus(args.corpus, known_headers=headers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_targets(out_dir / "targets.jsonl", (s.targets for s in summaries))
    bodies = ((s.hadm_id, s.body_without_targets) for s in summaries)
    corpus.write_jsonl_records(out_dir / "bodies.jsonl", ("hadm_id", "body"), bodies)
    _write_manifest(out_dir, "extract", args, [args.corpus, *filter(None, [args.headers])])
    print(f"extracted {len(summaries)} documents -> {out_dir}", file=sys.stderr)
    return 0


def _load_bodies(path, lazy: bool = False) -> dict[str, str]:
    """hadm_id -> its body, a TextRef if ``lazy``."""
    records = corpus.read_jsonl_records(path, ("hadm_id", "body"), key=("hadm_id",), lazy=(1,) if lazy else ())
    return {hadm_id: body for _, (hadm_id, body) in records}


def _metric_names(value: str | None) -> tuple[str, ...] | None:
    """The names of a ``--metrics`` list, None when the flag is absent; an empty name is an error."""
    names = None if value is None else tuple(value.split(","))
    if names is not None and "" in names:
        raise ValueError(f"--metrics {value!r}: empty metric name")
    return names


def cmd_score(args) -> int:
    """Score every candidate, holding one document's texts at a time: pass 1
    checks every line of each input and keeps ids, lines, offsets and text
    lengths; the shards of ``scores.score_cells`` read each document's lines
    back when they score it, and the rows stream from its cells to the CSV."""
    from . import scores

    if args.against_ds and args.references:
        raise scores.ScoreError(
            "--against-ds scores against the note body, so --references cannot be given with it"
        )
    candidates = corpus.load_candidates(args.candidates, lazy=True)
    metrics = _metric_names(args.metrics)
    inputs = [args.candidates, *filter(None, [args.against_ds, args.references]), *args.external]
    targets_present = sorted({c.target for c in candidates}, key=lambda t: t.value)
    if args.against_ds:
        bodies = _load_bodies(args.against_ds, lazy=True)
        _check_against(candidates, bodies, args.against_ds, "discharge summary")
        summaries = [corpus.DischargeSummary(hadm_id=k, full_text=v, body_without_targets=v) for k, v in bodies.items()]
        proxy_metrics = metrics or ("meteor",)
        jobs = [scores.factuality_proxy_job(candidates, summaries, proxy_metrics, t) for t in targets_present]
    else:
        references = corpus.load_targets(args.references, lazy=True) if args.references else None
        if references is not None and (metrics is None or set(metrics) & set(scores.REFERENCE_METRICS)):
            _check_against(candidates, references, args.references, "reference")
        jobs = [scores.native_score_job(candidates, references, metrics, t) for t in targets_present]
    cells = scores.score_cells(jobs, args.threads)
    undefined = sum(sum(map(math.isnan, job_cells)) for job_cells in cells)
    if args.external:
        from . import tables

        rows = []
        for job, job_cells in zip(jobs, cells):
            table = tables.job_table(job, scores.job_rows(job, job_cells))
            for path in args.external:
                table = tables.load_external_scores(path, table)
            rows.extend(table.to_rows())
        written = len(rows)
    else:
        rows = (row for job, job_cells in zip(jobs, cells) for row in scores.job_rows(job, job_cells))
        # A pool read from a file holds each (hadm_id, model_id) once, so each defined cell is one row.
        written = sum(map(len, cells)) - undefined
    scores.write_score_csv(args.out, rows)
    counts = {
        "documents": len({c.hadm_id for c in candidates}),
        "models": len({c.model_id for c in candidates}),
        "candidates": len(candidates),
        "cells": written,
        "undefined_cells": undefined,
    }
    _write_manifest(Path(args.out), "score", args, inputs, counts)
    note = f" ({undefined} undefined)" if undefined else ""
    print(f"wrote {written} score cells{note} -> {args.out}", file=sys.stderr)
    return 0


def _check_against(candidates, texts, path, what: str) -> None:
    """Name the candidate's file and line, and ``path``, for the first candidate with no text in ``texts``."""
    for c in candidates:
        if c.hadm_id not in texts:
            raise corpus.CorpusError(
                f"{c.text.path}: line {c.text.line}: no {what} for hadm_id {c.hadm_id!r} in {path}"
            )


def _resolve_config(args, table, target):
    """Map --config to either a DesConfig or a LengthSelectConfig; errors a
    config file causes name the file."""
    from . import des

    name = args.config
    if name == "des5":
        if not args.ranking:
            raise des.DesConfigError("des5 needs --ranking model_a,model_b,...")
        return des.LengthSelectConfig(model_ranking=tuple(args.ranking.split(",")))
    if name == "des4":
        if not args.overall:
            raise des.DesConfigError("des4 needs --overall with per-document overall scores")
        overall = _read_overall_csv(args.overall, target).get(target)
        if not overall:
            raise des.DesConfigError(f"--overall has no rows for target {target.value}")
        try:
            return des.derive_des4_weights(table, overall)
        except corpus.ScoreError as exc:
            raise corpus.ScoreError(f"{args.overall}: {exc}") from None
    config = _preset_or_file(name, ", ".join(des.PRESET_NAMES))
    if name not in des.PRESETS:
        try:
            config.criteria_for(target, table.metrics)
        except (des.DesConfigError, des.MissingCellError) as exc:
            raise type(exc)(f"{name}: {exc}") from None
    return config


def _preset_or_file(name: str, choices: str) -> des.DesConfig:
    """The des1..des3 preset called ``name``, else the config in the JSON file ``name``."""
    from . import des

    if name in des.PRESETS:
        return des.PRESETS[name]
    if Path(name).exists():
        try:
            return des.load_des_config(name)
        except des.DesConfigError as exc:
            raise des.DesConfigError(f"{name}: {exc}") from None
    raise des.DesConfigError(f"unknown config {name!r}: expected one of {choices} or a JSON path")


def cmd_select(args) -> int:
    """Pick one candidate per document and write its text, holding no other text: pass 1 checks
    every candidate but keeps only each target candidate's ids, word count and line, selection
    reads no text, and pass 2 decodes only the winners' lines, which must still hold the same."""
    from . import des

    target = TargetKind.parse(args.target)
    records = corpus.read_candidate_records(args.candidates)
    # (hadm_id, model_id) -> (line, word count) of each candidate of the target.
    found = {(h, m): (lineno, word_count(text)) for lineno, h, m, kind, text in records if kind is target}
    if not found:
        raise corpus.CorpusError(f"no candidates for target {target.value}")
    docs, models = corpus.first_seen(h for h, _ in found), corpus.first_seen(m for _, m in found)
    table = _load_score_tables(args.scores, (target,), docs, models)[target]
    config = _resolve_config(args, table, target)
    if isinstance(config, des.LengthSelectConfig):
        result = des.select_by_length({key: count for key, (_, count) in found.items()}, config, target)
    else:
        result = des.select_experts(table, config, target, strict=not args.lenient)
        if config.name == "des4":
            derived_path = Path(args.out).with_name(Path(args.out).name + ".des4.json")
            corpus.write_json(derived_path, des.des_config_to_json(config))
    winners = [(s.hadm_id, s.model_id, found.get((s.hadm_id, s.model_id))) for s in result.selections]
    missing_text = [hadm_id for hadm_id, _, line in winners if line is None]
    if missing_text:
        raise corpus.CorpusError(
            f"no candidate text for selected models on hadm_ids: {', '.join(missing_text[:5])}"
        )
    wanted = {lineno for _, _, (lineno, _) in winners}
    texts = dict(corpus.read_jsonl_records(args.candidates, corpus.CANDIDATE_FIELDS, lines=wanted))
    rows = []
    for hadm_id, model_id, (lineno, count) in winners:
        values = texts.get(lineno)
        if values is None or values[:3] != [hadm_id, model_id, target.value] or word_count(values[3]) != count:
            raise corpus.CorpusError(f"{args.candidates}: line {lineno}: candidate changed since it was read")
        rows.append((hadm_id, values[3]))
    _write_submission(args.out, rows)
    tally_path = Path(args.out).with_name(Path(args.out).name + ".tally.json")
    corpus.write_json(tally_path, dict(sorted(result.tally.items())))
    inputs = [args.candidates, *args.scores]
    if args.config == "des4":
        inputs.append(args.overall)
    if args.config not in ("des4", "des5", *des.PRESETS):
        inputs.append(args.config)  # a DES config JSON file
    _write_manifest(Path(args.out), "select", args, inputs)
    print(f"selected {len(result.selections)} texts -> {args.out}", file=sys.stderr)
    return 0


def cmd_reorder(args) -> int:
    from . import relevance, reorder

    if args.budget < 1:
        print("error: --budget must be >= 1", file=sys.stderr)
        return 1
    target = TargetKind.parse(args.target)
    headers = corpus.load_known_headers(args.headers) if args.headers else None
    summaries = corpus.load_corpus(args.corpus, known_headers=headers)
    docs = [reorder.split_sections(s, known_headers=headers) for s in summaries]

    def section_scorer():
        if args.scorer != "external":
            return relevance.rouge_1
        if not args.section_scores:
            raise reorder.SectionScoreError("--scorer external needs --section-scores")
        return reorder.ExternalSectionScores.from_csv(args.section_scores)

    def references() -> dict[str, str]:
        if not args.reference_targets:
            raise reorder.SectionScoreError(f"--mode {args.mode} needs --reference-targets")
        targets = corpus.load_targets(args.reference_targets)
        return {
            hadm_id: corpus.reference_text(targets, hadm_id, target) for hadm_id in targets
        }

    if args.apply_ranking:
        ranking = reorder.load_header_ranking(args.apply_ranking)
        ordered = [reorder.apply_header_ranking(d, ranking) for d in docs]
    elif args.mode == "global":
        scorer = section_scorer()
        ranking = reorder.global_header_ranking(docs, references(), scorer)
        ranking_path = Path(args.out).with_name(Path(args.out).name + ".ranking.json")
        reorder.write_header_ranking(ranking_path, ranking)
        ordered = [reorder.apply_header_ranking(d, ranking) for d in docs]
    else:
        scorer, refs = section_scorer(), references()
        ordered = []
        for d in docs:
            if d.hadm_id not in refs:
                raise reorder.SectionScoreError(f"no reference text for hadm_id {d.hadm_id!r}")
            ordered.append(reorder.rank_sections(d, refs[d.hadm_id], scorer))
    rows = ((doc.hadm_id, reorder.truncate_words(doc, args.budget)) for doc in ordered)
    corpus.write_jsonl_records(args.out, ("hadm_id", "text"), rows)
    # Only the files this run read: --apply-ranking replaces --reference-targets and the scorer.
    read = [args.headers, args.apply_ranking or args.reference_targets]
    if args.scorer == "external" and not args.apply_ranking:
        read.append(args.section_scores)
    _write_manifest(Path(args.out), "reorder", args, [args.corpus, *filter(None, read)])
    print(f"reordered {len(ordered)} documents -> {args.out}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    from . import scores, tables

    target = TargetKind.parse(args.target)
    submission = _read_submission(args.submission)
    targets = corpus.load_targets(args.references)
    missing = [hadm_id for hadm_id, _ in submission if hadm_id not in targets]
    if missing:
        raise corpus.CorpusError(
            f"submission hadm_ids missing from references: {', '.join(missing[:5])}"
        )
    candidates = [corpus.GeneratedCandidate(doc, args.model_id, target, text) for doc, text in submission]
    job = scores.native_score_job(candidates, targets, scores.REFERENCE_METRICS, target)
    table = tables.job_table(job, scores.score_jobs([job], args.threads)[0])
    for path in args.external:
        table = tables.load_external_scores(path, table)
    overall = tables.overall_by_document(table)
    report_rows: list[tuple[str, str, float]] = []
    for doc in table.documents:
        for metric in table.metrics:
            value = table.get(doc, args.model_id, metric)
            if not math.isnan(value):
                report_rows.append((doc, metric, value))
        report_rows.append((doc, "overall", overall[(doc, args.model_id)]))
    metric_names = list(table.metrics) + ["overall"]
    means = {
        metric: _mean(v for _, m, v in report_rows if m == metric) for metric in metric_names
    }
    mean_rows = [("MEAN", metric, means[metric]) for metric in metric_names]
    corpus.write_csv_records(args.out, ("hadm_id", "metric", "value"), report_rows + mean_rows)
    width = max(len(m) for m in metric_names)
    print(f"{'metric'.ljust(width)}  corpus mean")
    for metric in metric_names:
        print(f"{metric.ljust(width)}  {means[metric]:.4f}")
    _write_manifest(Path(args.out), "evaluate", args, [args.submission, args.references, *args.external])
    return 0


def cmd_correlate(args) -> int:
    from . import analysis

    overalls = _read_overall_csv(args.overall)
    if not overalls:
        raise corpus.ScoreError(f"{args.overall}: no overall rows")
    metrics = _metric_names(args.metrics)
    by_target = _load_score_tables(args.scores, sorted(overalls, key=lambda t: t.value))
    out_rows: list[tuple[str, str, float]] = []
    try:
        if args.mode == "pooled":
            matrix = analysis.correlation_matrix(
                list(by_target.values()),
                [{"overall_pooled": overalls[t]} for t in by_target],
                metrics=metrics,
            )
            out_rows.extend(matrix.to_rows())
        else:
            for target, table in by_target.items():
                matrix = analysis.correlation_matrix(
                    table, {f"overall_{target.value}": overalls[target]}, metrics=metrics
                )
                out_rows.extend(matrix.to_rows())
    except corpus.ScoreError as exc:
        raise corpus.ScoreError(f"{args.overall}: {exc}") from None
    corpus.write_csv_records(args.out, ("metric", "overall_variant", "r"), sorted(out_rows))
    _write_manifest(Path(args.out), "correlate", args, [*args.scores, args.overall])
    print(f"wrote {len(out_rows)} correlations -> {args.out}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    from . import des, scores, tables

    # A bad --config fails here, before anything is generated or written.
    config = None
    if args.config not in ("oracle", "des5"):
        config = _preset_or_file(args.config, "oracle, des1..des3, des5")
    summaries, candidates = corpus.generate_synthetic_corpus(args.docs, args.models, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets_map = {s.hadm_id: s.targets for s in summaries}
    corpus.write_corpus(out_dir / "corpus.jsonl", summaries)
    corpus.write_candidates(out_dir / "candidates.jsonl", candidates)
    leaderboard: list[tuple[str, float]] = []
    per_target_overall: dict[TargetKind, dict[tuple[str, str], float]] = {}
    model_ids = scores.first_seen(c.model_id for c in candidates)
    pool_by_target = {
        t: [c for c in candidates if c.target is t] for t in (TargetKind.BHC, TargetKind.DI)
    }
    # Every score of the run, in one score_jobs call.
    jobs = {}
    for target, pool in pool_by_target.items():
        jobs["native", target] = scores.native_score_job(pool, targets_map, scores.REFERENCE_METRICS, target)
        jobs["on_refs", target], jobs["on_body", target] = scores.synthetic_external_jobs(
            pool, targets_map, summaries
        )
    if config is not None:
        # DES chooses without the gold target, so its scores (and on_body's alignscore) compare with the note body.
        bodies = {s.hadm_id: s.body_without_targets for s in summaries}
        columns = {m: m for m in ("meteor", "medcon", "fkgl", "dcrs", "cli")}
        for target, pool in pool_by_target.items():
            jobs["des", target] = (pool, target, columns, bodies)
    scored = dict(zip(jobs, scores.score_jobs(list(jobs.values()), args.threads)))

    def pool_table(target, rows):
        pool = pool_by_target[target]
        docs, models = scores.first_seen(c.hadm_id for c in pool), scores.first_seen(c.model_id for c in pool)
        return tables.ScoreTable.from_rows(rows, target, docs, models)

    for target in pool_by_target:
        rows = scored["native", target] + scored["on_refs", target] + scored["on_body", target]
        per_target_overall[target] = tables.overall_by_document(pool_table(target, rows))
    for model in model_ids:
        means = []
        for target, overall in per_target_overall.items():
            docs = sorted({doc for doc, _ in overall})
            means.append(_mean(overall[(doc, model)] for doc in docs))
        leaderboard.append((f"model:{model}", _mean(means)))

    def strategy_mean(select_fn) -> float:
        means = []
        for target, overall in per_target_overall.items():
            result = select_fn(target)
            chosen = result.by_document()
            docs = [s.hadm_id for s in result.selections]
            means.append(_mean(overall[(doc, chosen[doc].model_id)] for doc in docs))
        return _mean(means)

    if args.config == "oracle":
        def run(target):
            overall = per_target_overall[target]
            rows = [
                (doc, model, target.value, "overall", value)
                for (doc, model), value in overall.items()
            ]
            table = pool_table(target, rows)
            config = des.DesConfig("oracle", criteria=(des.Criterion("overall", 1.0),))
            return des.select_experts(table, config, target)
    elif args.config == "des5":
        ranking = [
            name.removeprefix("model:")
            for name, _ in sorted(leaderboard, key=lambda kv: -kv[1])
        ]
        length_config = des.LengthSelectConfig(model_ranking=tuple(ranking))

        def run(target):
            counts = {(c.hadm_id, c.model_id): word_count(c.text) for c in pool_by_target[target]}
            return des.select_by_length(counts, length_config, target)
    else:
        def run(target):
            table = pool_table(target, scored["des", target] + scored["on_body", target])
            return des.select_experts(table, config, target)

    leaderboard.append((f"des:{args.config}", strategy_mean(run)))
    leaderboard.sort(key=lambda kv: -kv[1])
    corpus.write_csv_records(out_dir / "leaderboard.csv", ("strategy", "mean_overall"), leaderboard)
    width = max(len(name) for name, _ in leaderboard)
    print(f"{'strategy'.ljust(width)}  mean overall")
    for name, value in leaderboard:
        print(f"{name.ljust(width)}  {value:.4f}")
    config_file = config is not None and args.config not in des.PRESETS
    _write_manifest(out_dir, "simulate", args, [args.config] if config_file else [])
    return 0


# --- parser -------------------------------------------------------------------


def _add_threads(parser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap on worker processes; default: usable CPUs; results never depend on it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dischargekit",
        description="Deterministic evaluation and expert selection for generated discharge-summary sections.",
    )
    parser.add_argument("--version", action="version", version=f"dischargekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract BHC/DI targets from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--headers", help="custom known-header list file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", help="score candidates with the native metric suite")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", help="targets.jsonl with gold BHC/DI texts")
    p.add_argument("--against-ds", help="bodies.jsonl; score against the whole document body")
    p.add_argument("--metrics", help="comma-separated metric list")
    p.add_argument("--external", action="append", default=[], help="external score CSV (repeatable)")
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="run an expert-selection strategy")
    p.add_argument("--scores", action="append", default=[], required=True, help="score CSV (repeatable)")
    p.add_argument("--candidates", required=True)
    p.add_argument("--config", required=True, help="preset name (des1..des5) or JSON path")
    p.add_argument("--target", required=True, choices=["bhc", "di"])
    p.add_argument("--ranking", help="comma-separated model ranking (des5)")
    p.add_argument("--overall", help="per-document overall CSV (des4)")
    p.add_argument("--lenient", action="store_true", help="drop criteria with missing cells")
    p.add_argument("--out", required=True, help="submission CSV path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("reorder", help="split, rank, and truncate document sections")
    p.add_argument("--corpus", required=True)
    p.add_argument("--reference-targets", help="targets.jsonl used to score section relevance")
    p.add_argument("--target", default="di", choices=["bhc", "di"])
    p.add_argument("--scorer", default="rouge1", choices=["rouge1", "external"])
    p.add_argument("--section-scores", help="external per-section score CSV")
    p.add_argument("--mode", default="global", choices=["global", "per-doc"])
    p.add_argument("--apply-ranking", help="apply an existing header-ranking JSON")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--headers", help="custom known-header list file")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("evaluate", help="score a submission and report the overall score")
    p.add_argument("--submission", required=True, help="CSV with hadm_id,text")
    p.add_argument("--references", required=True, help="targets.jsonl")
    p.add_argument("--target", required=True, choices=["bhc", "di"])
    p.add_argument("--external", action="append", default=[], help="external score CSV (repeatable)")
    p.add_argument("--model-id", default="submission")
    p.add_argument("--out", required=True, help="report CSV path")
    _add_threads(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("correlate", help="correlate score columns with overall scores")
    p.add_argument("--scores", action="append", default=[], required=True)
    p.add_argument("--overall", required=True, help="CSV with hadm_id,model_id,target,value")
    p.add_argument("--mode", default="pooled", choices=["pooled", "per-target"])
    p.add_argument("--metrics", help="comma-separated metric subset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("simulate", help="synthetic end-to-end demo with a leaderboard")
    p.add_argument("--docs", type=int, default=50)
    p.add_argument("--models", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default="oracle", help="oracle, des1..des3, des5, or a JSON path")
    p.add_argument("--out", required=True, help="output directory")
    _add_threads(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
