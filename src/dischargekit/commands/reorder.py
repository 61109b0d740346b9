"""``dischargekit reorder``: split, rank and truncate each document's sections."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import corpus, relevance, reorder
from ..corpus import TargetKind
from . import _write_manifest


def run(args) -> int:
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
