"""``dischargekit extract``: a corpus's BHC/DI targets and bodies without them."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import corpus
from . import _write_manifest


def run(args) -> int:
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
