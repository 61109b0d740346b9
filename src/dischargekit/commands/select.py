"""``dischargekit select``: one model's text per document, by a DES preset, config or des4/des5."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import corpus, workers
from ..corpus import TargetKind
from . import _load_score_tables, _preset_or_file, _read_overall_csv, _write_manifest


def run(args) -> int:
    """Pick one candidate per document and write its text, holding no other text: pass 1 checks
    every candidate but keeps only each target candidate's ids, word count and line, selection
    reads no text, and pass 2 decodes only the winners' lines, which must still hold the same.

    Pass 1 runs in a worker process when more than one CPU is usable, while this process fills
    the target's score table on the documents and models the score files give. Errors are those
    of a run in one process, in the same order: pass 1's first, then "no candidates", then a fill
    on the candidates' axes, which is run again when the first fill failed or its axes differ."""
    target = TargetKind.parse(args.target)
    with workers.Task(_target_candidates, args.candidates, target) as pass_one:
        # Imported while the worker reads, so their compile overlaps pass 1.
        from .. import des
        from ..textprep import word_count

        try:
            table = _load_score_tables(args.scores, (target,))[target]
        except (OSError, ValueError):
            table = None
        found = pass_one.result()
    if not found:
        raise corpus.CorpusError(f"no candidates for target {target.value}")
    docs, models = corpus.first_seen(h for h, _ in found), corpus.first_seen(m for _, m in found)
    if table is None or (table.documents, table.models) != (docs, models):
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
    counts = {"documents": len(docs), "models": len(models), "candidates": len(found), "metrics": len(table.metrics)}
    _write_manifest(Path(args.out), "select", args, inputs, counts)
    print(f"selected {len(result.selections)} texts -> {args.out}", file=sys.stderr)
    return 0


def _target_candidates(path, target: TargetKind) -> dict[tuple[str, str], tuple[int, int]]:
    """Pass 1: (hadm_id, model_id) -> (line, word count) of each candidate of ``target``;
    every candidate is checked."""
    from ..textprep import word_count

    records = corpus.read_candidate_records(path)
    return {(h, m): (lineno, word_count(text)) for lineno, h, m, kind, text in records if kind is target}


def _resolve_config(args, table, target):
    """Map --config to either a DesConfig or a LengthSelectConfig; errors a
    config file causes name the file."""
    from .. import des

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


def _write_submission(path, rows) -> None:
    corpus.write_csv_records(path, ("hadm_id", "text"), rows)
