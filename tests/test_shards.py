"""Scoring in forked worker shards writes exactly what ``--threads 1`` writes.

``scores.usable_cpus`` is patched to 4 so that ``--threads 3`` forks even on
a small machine; each case also runs with ``os.fork`` missing, which scores
serially.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path

import pytest

from dischargekit import cli, corpus, scores, synthetic
from dischargekit.corpus import GeneratedCandidate, TargetKind


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that waits on a worker for over two minutes instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("test still waiting after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("shards")
    assert run("simulate", "--docs", 7, "--models", 3, "--seed", 11, "--config", "des5",
               "--out", base / "sim", "--threads", 1) == 0
    assert run("extract", "--corpus", base / "sim" / "corpus.jsonl", "--out", base / "ext") == 0
    candidates = corpus.load_candidates(base / "sim" / "candidates.jsonl")
    targets = corpus.load_targets(base / "ext" / "targets.jsonl")
    summaries = corpus.load_corpus(base / "sim" / "corpus.jsonl")
    external = synthetic.synthetic_external_rows(candidates, targets, summaries)
    scores.write_score_csv(base / "external.csv", external)
    submission = [
        c._replace(model_id="submission")
        for c in candidates
        if c.model_id == "model_b" and c.target is TargetKind.DI
    ]
    texts = [(c.hadm_id, c.text) for c in submission]
    corpus.write_csv_records(base / "submission.csv", ("hadm_id", "text"), texts)
    scores.write_score_csv(
        base / "submission_external.csv", synthetic.synthetic_external_rows(submission, targets, summaries)
    )
    return base


def _cases(d: Path) -> dict[str, tuple]:
    cands, targets = d / "sim" / "candidates.jsonl", d / "ext" / "targets.jsonl"
    return {
        "score_references": ("score", "--candidates", cands, "--references", targets),
        "score_against_ds": ("score", "--candidates", cands, "--against-ds", d / "ext" / "bodies.jsonl",
                             "--metrics", "meteor,rouge_l,bleu4"),
        "score_external": ("score", "--candidates", cands, "--references", targets,
                           "--external", d / "external.csv"),
        "evaluate": ("evaluate", "--submission", d / "submission.csv", "--references", targets,
                     "--target", "di", "--external", d / "submission_external.csv"),
        "simulate_des1": ("simulate", "--docs", 5, "--models", 3, "--seed", 2, "--config", "des1"),
    }


def _outputs(out: Path) -> dict[str, bytes]:
    """The bytes of each output file under ``out``, or of ``out`` itself, but not the manifest."""
    paths = sorted(out.rglob("*")) if out.is_dir() else [out]
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in paths
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def _count_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("case", ["score_references", "score_against_ds", "score_external", "evaluate",
                                  "simulate_des1"])
def test_sharded_outputs_equal_serial(case, data, tmp_path, monkeypatch, capsys):
    argv = _cases(data)[case]
    assert run(*argv, "--out", tmp_path / "serial", "--threads", 1) == 0
    serial = _outputs(tmp_path / "serial")
    serial_stdout = capsys.readouterr().out
    assert serial

    monkeypatch.setattr(scores, "usable_cpus", lambda: 4)
    forks = _count_forks(monkeypatch)
    assert run(*argv, "--out", tmp_path / "sharded", "--threads", 3) == 0
    assert 1 <= len(forks) <= 2
    assert _outputs(tmp_path / "sharded") == serial
    assert capsys.readouterr().out == serial_stdout

    monkeypatch.delattr(os, "fork")
    assert run(*argv, "--out", tmp_path / "no_fork") == 0
    assert _outputs(tmp_path / "no_fork") == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_first_serial_error_wins_across_shards(data, tmp_path, monkeypatch, capsys):
    # No candidate fails a run: an empty text's readability cells are
    # undefined and left out alike in every shard, so no error is carried
    # across shards.
    candidates = corpus.load_candidates(data / "sim" / "candidates.jsonl")
    docs = scores.first_seen(c.hadm_id for c in candidates)
    # One emptied candidate sits in the first shard, the other in the last.
    empty = {(docs[0], "model_a", TargetKind.DI), (docs[-1], "model_b", TargetKind.BHC)}
    broken = [
        c._replace(text="") if (c.hadm_id, c.model_id, c.target) in empty else c
        for c in candidates
    ]
    corpus.write_candidates(tmp_path / "candidates.jsonl", broken)
    references = data / "ext" / "targets.jsonl"
    assert run("score", "--candidates", data / "sim" / "candidates.jsonl", "--references", references,
               "--out", tmp_path / "whole.csv", "--threads", 1) == 0
    assert "undefined" not in capsys.readouterr().err
    undefined = {(doc, model, target.value, metric)
                 for doc, model, target in empty for metric in scores.READABILITY_METRICS}
    whole = {row[:4] for row in scores.read_score_csv(tmp_path / "whole.csv")}
    assert undefined <= whole
    argv = ("score", "--candidates", tmp_path / "candidates.jsonl", "--references", references)

    out = tmp_path / "serial.csv"
    assert run(*argv, "--out", out, "--threads", 1) == 0
    assert capsys.readouterr().err.endswith(f" score cells (6 undefined) -> {out}\n")
    assert {row[:4] for row in scores.read_score_csv(out)} == whole - undefined
    serial = out.read_bytes()

    monkeypatch.setattr(scores, "usable_cpus", lambda: 4)
    forks = _count_forks(monkeypatch)
    assert run(*argv, "--out", tmp_path / "sharded.csv", "--threads", 4) == 0
    assert "(6 undefined)" in capsys.readouterr().err
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "sharded.csv").read_bytes() == serial


def test_dead_worker_exits_two_without_hanging(data, tmp_path, monkeypatch, capsys):
    parent, score_shard = os.getpid(), scores._score_shard

    def dying(jobs, part):
        if os.getpid() != parent:
            os._exit(3)
        return score_shard(jobs, part)

    monkeypatch.setattr(scores, "_score_shard", dying)
    monkeypatch.setattr(scores, "usable_cpus", lambda: 3)
    argv = _cases(data)["score_references"]
    assert run(*argv, "--out", tmp_path / "scores.csv") == 2
    assert "exited with status 3" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "scores.csv").exists()


def _candidate(doc: str, model: str, text: str, target=TargetKind.DI) -> GeneratedCandidate:
    return GeneratedCandidate(doc, model, target, text)


def test_split_gives_contiguous_document_runs_of_similar_length():
    texts = {"d1": "a " * 10, "d2": "b " * 40, "d3": "c " * 10, "d4": "d " * 20, "d5": "e " * 20}
    di = [_candidate(doc, model, text) for doc, text in texts.items() for model in ("m1", "m2")]
    bhc = [_candidate(doc, "m1", text, TargetKind.BHC) for doc, text in reversed(texts.items())]
    jobs = [(di, TargetKind.DI, {}, {}), (bhc, TargetKind.BHC, {}, {})]
    for n, expected in [(1, [["d1", "d2", "d3", "d4", "d5"]]),
                        (2, [["d1", "d2"], ["d3", "d4", "d5"]]),
                        (3, [["d1", "d2"], ["d3"], ["d4", "d5"]]),
                        (9, [["d1"], ["d2"], ["d3"], ["d4"], ["d5"]])]:
        parts = scores._split(jobs, n)
        docs = [scores.first_seen(jobs[j][0][pos].hadm_id for j, positions in enumerate(part)
                                  for pos in positions) for part in parts]
        assert [sorted(d) for d in docs] == expected, n
        for j, (pool, *_) in enumerate(jobs):
            assert sorted(pos for part in parts for pos in part[j]) == list(range(len(pool)))
            assert all(part[j] == sorted(part[j]) for part in parts)
    assert scores._split([], 4) == []


def test_threads_do_not_change_the_config_hash(data, tmp_path):
    argv = (*_cases(data)["score_references"], "--out", tmp_path / "scores.csv")
    hashes = []
    for threads in (1, 2):
        assert run(*argv, "--threads", threads) == 0
        manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text(encoding="utf-8"))
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_select_takes_no_threads_flag(data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("select", "--scores", data / "external.csv",
            "--candidates", data / "sim" / "candidates.jsonl",
            "--config", "des1", "--target", "di", "--out", tmp_path / "sub.csv", "--threads", 2)
    assert exc.value.code == 2


def test_a_process_with_other_threads_scores_serially(data, monkeypatch):
    candidates = corpus.load_candidates(data / "sim" / "candidates.jsonl")
    targets = corpus.load_targets(data / "ext" / "targets.jsonl")
    jobs = [scores.native_score_job(candidates, targets, None, kind) for kind in TargetKind]
    monkeypatch.setattr(scores, "usable_cpus", lambda: 4)
    forks = _count_forks(monkeypatch)
    assert scores.score_jobs(jobs, 3) == scores.score_jobs(jobs, 1)
    assert len(forks) == 2

    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert scores.score_jobs(jobs, 3) == scores.score_jobs(jobs, 1)
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert len(forks) == 2
