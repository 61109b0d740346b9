"""Every installed Python builds the same golden outputs, bit for bit.

``replay.py`` runs ``replay(work)`` in a fresh process under each CPython
3.10, 3.11, 3.12 and 3.13 found in ``$PYENV_ROOT/versions`` (default
``~/.pyenv/versions``) or on ``PATH``, all started at once. Each run makes
the replay's own checks (``simulate`` and ``score`` write the same files
with ``--threads 1``; an empty text loses exactly its readability rows) and
its whole object must equal the running interpreter's in-process replay:
the digest of every golden output, every pinned score and correlation cell,
and the ``float.hex`` digest of every CSV it writes, check-only runs
included. A version that is not installed is skipped by name. The replay
needs no numpy, so these interpreters need no third-party package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def find_python(version: str) -> str | None:
    """A CPython ``version`` interpreter that starts and reports that version, else None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    installed = sorted(root.glob(f"{version}.*/bin/python"), reverse=True)
    for exe in [*installed, shutil.which(f"python{version}")]:
        if exe is None:
            continue
        probe = subprocess.run(
            [str(exe), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return str(exe)
    return None


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """One ``replay.py`` process per installed version (None if missing), all running at once."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    procs = {}
    for version in VERSIONS:
        python = find_python(version)
        procs[version] = python and subprocess.Popen(
            [python, str(TESTS / "replay.py"), str(tmp_path_factory.mktemp(f"replay{version}"))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
    yield procs
    for proc in filter(None, procs.values()):
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("version", VERSIONS)
def test_replay_is_byte_identical_across_interpreters(version, replays, replayed):
    proc = replays[version]
    if proc is None:
        pytest.skip(f"Python {version} is not installed")
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-3000:]
    got = json.loads(out.splitlines()[-1])
    assert sorted(got) == sorted(replayed)
    changed = sorted(
        f"{part} {name}"
        for part, entries in replayed.items()
        for name in entries.keys() | got[part].keys()
        if got[part].get(name) != entries.get(name)
    )
    assert not changed, f"Python {version} differs: {changed}"
