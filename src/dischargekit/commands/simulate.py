"""``dischargekit simulate``: a synthetic end-to-end run with a leaderboard."""

from __future__ import annotations

from pathlib import Path

from .. import corpus, des, scores, synthetic, tables
from ..corpus import TargetKind
from ..textprep import word_count
from . import _mean, _preset_or_file, _write_manifest


def run(args) -> int:
    # A bad --config fails here, before anything is generated or written.
    config = None
    if args.config not in ("oracle", "des5"):
        config = _preset_or_file(args.config, "oracle, des1..des3, des5")
    summaries, candidates = synthetic.generate_synthetic_corpus(args.docs, args.models, args.seed)
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
        jobs["on_refs", target], jobs["on_body", target] = synthetic.synthetic_external_jobs(
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
        def choose(target):
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

        def choose(target):
            counts = {(c.hadm_id, c.model_id): word_count(c.text) for c in pool_by_target[target]}
            return des.select_by_length(counts, length_config, target)
    else:
        def choose(target):
            table = pool_table(target, scored["des", target] + scored["on_body", target])
            return des.select_experts(table, config, target)

    leaderboard.append((f"des:{args.config}", strategy_mean(choose)))
    leaderboard.sort(key=lambda kv: -kv[1])
    corpus.write_csv_records(out_dir / "leaderboard.csv", ("strategy", "mean_overall"), leaderboard)
    width = max(len(name) for name, _ in leaderboard)
    print(f"{'strategy'.ljust(width)}  mean overall")
    for name, value in leaderboard:
        print(f"{name.ljust(width)}  {value:.4f}")
    config_file = config is not None and args.config not in des.PRESETS
    _write_manifest(out_dir, "simulate", args, [args.config] if config_file else [])
    return 0
