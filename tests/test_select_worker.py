"""``select`` reads its candidates in a forked worker while it fills the score table.

Each case runs with the worker forced (``workers.usable_cpus`` patched to 2,
so it forks on any machine) and with ``os.fork`` missing, which reads the
candidates in this process; outputs and error lines must be the same.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path

import pytest

from dischargekit import cli, corpus, workers
from dischargekit.commands import select as select_command
from dischargekit.corpus import ScoreError
from dischargekit.synthetic import generate_synthetic_corpus

METRICS = ("alignscore", "cli", "dcrs", "fkgl", "medcon", "meteor")
HEADER = ("hadm_id", "model_id", "target", "metric", "value")
CONFIGS = {
    "des1": ("--config", "des1"),
    "des2": ("--config", "des2"),
    "des3": ("--config", "des3"),
    "des4": ("--config", "des4", "--overall", "overall.csv"),
    "des5": ("--config", "des5", "--ranking", "model_c,model_a,model_b"),
}


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
    """Candidates of 5 documents x 3 models x 2 targets, a score CSV of 6 metrics
    for them and an overall-score CSV."""
    base = tmp_path_factory.mktemp("select_worker")
    _, candidates = generate_synthetic_corpus(5, 3, seed=21)
    corpus.write_candidates(base / "candidates.jsonl", candidates)
    rows = [(c.hadm_id, c.model_id, c.target.value, metric, ((i * 37 + j * 11) % 97) / 97)
            for i, c in enumerate(candidates) for j, metric in enumerate(METRICS)]
    corpus.write_csv_records(base / "scores.csv", HEADER, rows)
    corpus.write_csv_records(base / "overall.csv", HEADER[:3] + ("value",),
                             [(c.hadm_id, c.model_id, c.target.value, (i * 0.37) % 1) for i, c in enumerate(candidates)])
    return base


def _count_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(out: Path) -> dict[str, bytes]:
    """The submission and every file written beside it, but not the manifest."""
    return {p.name: p.read_bytes() for p in sorted(out.parent.glob(out.name + "*"))
            if not p.name.endswith("manifest.json")}


def _select(data: Path, out: Path, *extra, scores=("scores.csv",), candidates="candidates.jsonl") -> int:
    score_flags = [a for name in scores for a in ("--scores", data / name)]
    extra = [data / a if a == "overall.csv" else a for a in extra]
    return run("select", *score_flags, "--candidates", data / candidates, "--target", "di", *extra, "--out", out)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_outputs_are_equal_with_and_without_the_worker(config, data, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    assert _select(data, tmp_path / "worker.csv", *CONFIGS[config]) == 0
    assert len(forks) == 1
    _no_child_left()
    worker = _outputs(tmp_path / "worker.csv")
    assert "worker.csv" in worker and len(worker) >= 2
    worker_err = capsys.readouterr().err

    monkeypatch.delattr(os, "fork")
    assert _select(data, tmp_path / "here.csv", *CONFIGS[config]) == 0
    here = _outputs(tmp_path / "here.csv")
    assert {name.replace("here", "worker"): body for name, body in here.items()} == worker
    assert capsys.readouterr().err == worker_err.replace("worker.csv", "here.csv")


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _bad_inputs(data: Path, tmp_path: Path, case: str) -> tuple[dict, str]:
    """The ``_select`` keywords of one broken input, with the files it needs
    written to ``tmp_path``, and the message it must fail with."""
    cands, scores = _lines(data / "candidates.jsonl"), _lines(data / "scores.csv")
    (tmp_path / "candidates.jsonl").write_text("".join(cands), encoding="utf-8")
    (tmp_path / "good.csv").write_text("".join(scores), encoding="utf-8")
    # A score value that is not finite, which only the candidate-side errors must beat.
    nan = "".join([scores[0], scores[1].rsplit(",", 1)[0] + ",nan\n", *scores[2:]])
    (tmp_path / "nan.csv").write_text(nan, encoding="utf-8")
    if case == "bad_candidate_json":
        (tmp_path / "c.jsonl").write_text("".join([*cands[:3], "{not json\n", *cands[3:]]), encoding="utf-8")
        return {"candidates": "c.jsonl", "scores": ("nan.csv",)}, f"{tmp_path / 'c.jsonl'}: line 4: invalid JSON"
    if case == "duplicate_candidate":
        (tmp_path / "c.jsonl").write_text("".join([*cands, cands[1]]), encoding="utf-8")
        record = json.loads(cands[1])
        key = f"hadm_id={record['hadm_id']!r}, model_id={record['model_id']!r}, target={record['target']!r}"
        return ({"candidates": "c.jsonl", "scores": ("nan.csv",)},
                f"{tmp_path / 'c.jsonl'}: duplicate candidate for ({key}) on lines 2 and {len(cands) + 1}")
    if case == "empty_target":
        kept = [line for line in cands if json.loads(line)["target"] != "di"]
        (tmp_path / "c.jsonl").write_text("".join(kept), encoding="utf-8")
        return {"candidates": "c.jsonl", "scores": ("nan.csv",)}, "no candidates for target di"
    if case == "score_row_of_no_candidate":
        (tmp_path / "s.csv").write_text("".join([*scores[:5], "nope,model_a,di,medcon,0.5\n", *scores[5:]]),
                                        encoding="utf-8")
        return {"scores": ("s.csv",)}, f"{tmp_path / 's.csv'}: rows reference unknown hadm_id/model_id: nope on row 6"
    if case == "duplicate_cell_across_files":
        row = next(line for line in scores[1:] if ",di,medcon," in line)
        (tmp_path / "s.csv").write_text(scores[0] + row, encoding="utf-8")
        model = row.split(",")[1]
        return ({"scores": ("good.csv", "s.csv")},
                f"{tmp_path / 's.csv'}: duplicate cell (hadm_id={row.split(',')[0]!r}, model_id={model!r}, "
                f"metric='medcon') on row 2")
    if case == "missing_candidates_file":
        return ({"candidates": "missing.jsonl", "scores": ("nan.csv",)},
                f"[Errno 2] No such file or directory: '{tmp_path / 'missing.jsonl'}'")
    if case == "non_finite_value":
        return {"scores": ("nan.csv",)}, f"{tmp_path / 'nan.csv'}: row 2: value 'nan' is not finite"
    raise AssertionError(case)


ERROR_CASES = ["bad_candidate_json", "duplicate_candidate", "empty_target", "score_row_of_no_candidate",
               "duplicate_cell_across_files", "non_finite_value", "missing_candidates_file"]


@pytest.mark.parametrize("case", ERROR_CASES)
def test_each_error_is_the_same_one_line_with_and_without_the_worker(case, data, tmp_path, monkeypatch, capsys):
    kwargs, expected = _bad_inputs(data, tmp_path, case)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    lines = []
    for mode in ("worker", "here"):
        if mode == "here":
            monkeypatch.delattr(os, "fork")
        assert _select(tmp_path, tmp_path / f"{mode}.csv", "--config", "des1", **kwargs) == 1
        assert len(forks) == 1
        _no_child_left()
        assert list(tmp_path.glob(f"{mode}.csv*")) == []
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert lines[0].startswith(f"error: {expected}") and lines[0].count("\n") == 1, lines[0]


def test_scores_in_another_document_order_are_filled_again_on_the_candidates_axes(data, tmp_path, monkeypatch):
    scores = _lines(data / "scores.csv")
    (tmp_path / "reversed.csv").write_text(scores[0] + "".join(reversed(scores[1:])), encoding="utf-8")
    fills = []
    load = select_command._load_score_tables
    monkeypatch.setattr(select_command, "_load_score_tables", lambda *a: fills.append(len(a[2:])) or load(*a))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert _select(data, tmp_path / "in_order.csv", "--config", "des3") == 0
    assert fills == [0]
    assert _select(data, tmp_path / "reversed_order.csv", "--config", "des3", scores=(tmp_path / "reversed.csv",)) == 0
    assert fills == [0, 0, 2]
    assert (tmp_path / "reversed_order.csv").read_bytes() == (tmp_path / "in_order.csv").read_bytes()
    _no_child_left()


def test_a_process_running_another_thread_does_not_fork(data, tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    assert _select(data, tmp_path / "forked.csv", "--config", "des2") == 0
    assert len(forks) == 1
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert _select(data, tmp_path / "threaded.csv", "--config", "des2") == 0
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert len(forks) == 1
    assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def test_one_usable_cpu_does_not_fork(data, tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    forks = _count_forks(monkeypatch)
    assert _select(data, tmp_path / "sub.csv", "--config", "des1") == 0
    assert forks == []


def test_manifest_counts_documents_models_candidates_and_metrics(data, tmp_path):
    assert _select(data, tmp_path / "sub.csv", "--config", "des1") == 0
    manifest = json.loads((tmp_path / "sub.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"] == {"documents": 5, "models": 3, "candidates": 15, "metrics": len(METRICS)}


# --- the fork helper ------------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a task fork on any machine."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)


def _fails(exc):
    raise exc


@pytest.mark.parametrize("cpus", [2, 1])
def test_a_task_returns_its_value_through_marshal(cpus, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    forks = _count_forks(monkeypatch)
    with workers.Task(divmod, 17, 5) as task:
        assert task.result() == (3, 2)
    assert len(forks) == (cpus > 1)
    _no_child_left()


@pytest.mark.parametrize("error", [ScoreError("bad cell"), FileNotFoundError("no file")])
def test_a_user_error_in_the_child_is_raised_here(error, two_cpus):
    pids = []

    def failing():
        pids.append(os.getpid())  # recorded here only: the child's list is its own
        raise error

    with workers.Task(failing) as task:
        with pytest.raises(type(error), match=f"^{error}$"):
            task.result()
    assert pids == [os.getpid()]
    _no_child_left()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fn, args, expected", [
    (_fails, (KeyError("k"),), "exited with status 1"),
    (os._exit, (3,), "exited with status 3"),
    (_kill_self, (), "was killed by signal 9"),
])
def test_a_child_that_dies_otherwise_is_a_runtime_error(fn, args, expected, two_cpus):
    with workers.Task(fn, *args) as task:
        with pytest.raises(RuntimeError, match=rf"^worker \d+ {expected}$"):
            task.result()
    _no_child_left()


def _inode(fd: int) -> int | None:
    """The inode ``fd`` refers to in this process, or None if it is closed."""
    try:
        return os.fstat(fd).st_ino
    except OSError:
        return None


def test_a_child_holds_no_other_tasks_pipe(two_cpus):
    with workers.Task(signal.pause) as first:
        pipe = first._pipe
        with workers.Task(_inode, pipe) as second:
            assert _inode(pipe) is not None and second.result() != _inode(pipe)
    _no_child_left()
    assert workers._pipes == set()


def test_closing_an_unread_task_kills_and_reaps_its_child(two_cpus):
    task = workers.Task(signal.pause)
    assert task._pid is not None
    task.close()
    task.close()
    _no_child_left()
