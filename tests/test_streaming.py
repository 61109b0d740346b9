"""``score`` holds one document's texts at a time.

Pass 1 keeps a :class:`~dischargekit.corpus.TextRef` in place of each text;
each shard reads a document's lines back when it scores that document, and
splits each text into words once, with one ``str`` per distinct word.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dischargekit import cli, corpus, scores, synthetic, textprep
from dischargekit.corpus import CorpusError, TextRef


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("streaming")
    summaries, candidates = synthetic.generate_synthetic_corpus(6, 3, 5)
    corpus.write_candidates(base / "candidates.jsonl", candidates)
    corpus.write_targets(base / "targets.jsonl", (s.targets for s in summaries))
    bodies = ((s.hadm_id, s.body_without_targets) for s in summaries)
    corpus.write_jsonl_records(base / "bodies.jsonl", ("hadm_id", "body"), bodies)
    return base


def test_equal_words_within_one_split_are_one_object():
    text = " ".join(["Patient", "stable", "patient", "STABLE", "review"])
    split = textprep._word_tuple(text)
    assert split == ("patient", "stable", "patient", "stable", "review")
    assert split[0] is split[2] and split[1] is split[3]


# Line ends of every kind, blank lines and non-ASCII text, as a text read numbers them.
TEXT = st.text(alphabet=st.sampled_from(list("aé€ \"\\")) | st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.lists(TEXT, min_size=1, max_size=5), ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]),
                                                                    min_size=5, max_size=5))
def test_lazy_records_read_back_their_texts(tmp_path, texts, ends):
    path = tmp_path / "cands.jsonl"
    rows = [(str(i), "m", "di", text) for i, text in enumerate(texts)]
    lines = [json.dumps(dict(zip(corpus.CANDIDATE_FIELDS, row)), ensure_ascii=False) for row in rows]
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
    eager = corpus.load_candidates(path)
    lazy = corpus.load_candidates(path, lazy=True)
    assert [c.text for c in eager] == texts
    with open(path, "rb") as fh:
        for c, text in zip(lazy, texts):
            assert isinstance(c.text, TextRef)
            assert corpus.read_text(c.text, fh, (c.hadm_id, c.model_id, c.target.value)) == text


def _count_body_splits(monkeypatch) -> list[tuple[int, int, int]]:
    """Wrap ``scores._score_shard`` so that each shard, in this process or a
    worker, asserts that it split each text into words once; returns what
    the shards of this process saw as (splits, candidates, documents)."""
    seen = []
    score_shard = scores._score_shard

    def counted(jobs, part):
        textprep._word_tuple.cache_clear()
        cells = score_shard(jobs, part)
        candidates = sum(map(len, part))
        docs = {jobs[j][0][pos].hadm_id for j, positions in enumerate(part) for pos in positions}
        splits = textprep._word_tuple.cache_info().misses
        assert splits == candidates + len(docs), (splits, candidates, len(docs))
        seen.append((splits, candidates, len(docs)))
        return cells

    monkeypatch.setattr(scores, "_score_shard", counted)
    return seen


@pytest.mark.parametrize("threads", [1, 3])
def test_against_ds_splits_each_body_once_per_shard(data, tmp_path, monkeypatch, threads):
    seen = _count_body_splits(monkeypatch)
    monkeypatch.setattr(scores, "usable_cpus", lambda: 4)
    argv = ("score", "--candidates", data / "candidates.jsonl", "--against-ds", data / "bodies.jsonl",
            "--metrics", "meteor,rouge_l")
    # A worker whose check fails exits non-zero, and the run with it (exit 2).
    assert run(*argv, "--out", tmp_path / "ds.csv", "--threads", threads) == 0
    assert len(seen) == 1
    if threads == 1:
        assert seen == [(36 + 6, 36, 6)]  # 6 documents x 3 models x 2 targets, and one body each


def _change_line_after_pass_one(monkeypatch, path: Path, lineno: int) -> None:
    """Once pass 1 is over, swap the model_id on line ``lineno`` of ``path`` for
    another of the same length, so no other line moves."""
    split = scores._split

    def changed(jobs, n):
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] = lines[lineno - 1].replace(b'"model_a"', b'"model_z"')
        path.write_bytes(b"\n".join(lines))
        return split(jobs, n)

    monkeypatch.setattr(scores, "_split", changed)


@pytest.mark.parametrize("threads", [1, 3])
def test_candidate_changed_between_passes_names_file_and_line(data, tmp_path, monkeypatch, capsys, threads):
    path = tmp_path / "candidates.jsonl"
    path.write_bytes((data / "candidates.jsonl").read_bytes())
    # A model_a candidate of the last document: in the last shard when sharded.
    lineno = max(i for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if '"model_a"' in line)
    _change_line_after_pass_one(monkeypatch, path, lineno)
    monkeypatch.setattr(scores, "usable_cpus", lambda: 4)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = tmp_path / "scores.csv"
    assert run("score", "--candidates", path, "--references", data / "targets.jsonl", "--metrics", "rouge_1",
               "--out", out, "--threads", threads) == 1
    assert capsys.readouterr().err == f"error: {path}: line {lineno}: changed since it was read\n"
    assert len(forks) == threads - 1
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reference_changed_between_passes_names_file_and_line(data, tmp_path):
    path = tmp_path / "targets.jsonl"
    path.write_bytes((data / "targets.jsonl").read_bytes())
    hadm_id, first = next(iter(corpus.load_targets(path, lazy=True).items()))
    path.write_text(path.read_text(encoding="utf-8").replace('"bhc": "', '"bhc": "x', 1), encoding="utf-8")
    with open(path, "rb") as fh, pytest.raises(CorpusError, match=r"targets\.jsonl: line 1: changed since"):
        corpus.read_text(first.bhc, fh, (hadm_id,))


def _score_peak(directory: Path, admissions: int) -> int:
    """The tracemalloc peak of one in-process ``score --threads 1 --metrics rouge_1``."""
    summaries, candidates = synthetic.generate_synthetic_corpus(admissions, 4, 3)
    corpus.write_candidates(directory / "c.jsonl", candidates)
    corpus.write_targets(directory / "t.jsonl", (s.targets for s in summaries))
    del summaries, candidates
    tracemalloc.start()
    try:
        assert run("score", "--candidates", directory / "c.jsonl", "--references", directory / "t.jsonl",
                   "--metrics", "rouge_1", "--threads", 1, "--out", directory / "o.csv") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_memory_grows_by_ids_not_texts(tmp_path):
    """Each admission adds 8 candidates of about 1.7k characters and two
    references: about 20 KiB of peak when every text is held, about 4 KiB
    when only ids, line offsets and cells are."""
    _score_peak(tmp_path, 10)  # imports and first-use caches
    small, large = _score_peak(tmp_path, 50), _score_peak(tmp_path, 200)
    per_admission = (large - small) / 150
    assert per_admission < 8000, f"peak grows {per_admission:.0f} bytes per admission"
