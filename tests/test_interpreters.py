"""The simulate -> score -> select -> correlate chain writes the same bytes on every installed Python.

``replay.py`` runs the chain in a fresh process, under the running
interpreter and under each CPython 3.10, 3.12 and 3.13 found in
``$PYENV_ROOT/versions`` (default ``~/.pyenv/versions``) or on ``PATH``;
every output digest must match the running interpreter's. A version that
is not installed is skipped by name. The chain needs no numpy, so these
interpreters need no third-party package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
VERSIONS = ("3.10", "3.12", "3.13")


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


def replay_digests(python: str, work: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    done = subprocess.run(
        [python, str(TESTS / "replay.py"), str(work)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict[str, str]:
    return replay_digests(sys.executable, tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("version", VERSIONS)
def test_replay_is_byte_identical_across_interpreters(version, reference, tmp_path):
    python = find_python(version)
    if python is None:
        pytest.skip(f"Python {version} is not installed")
    digests = replay_digests(python, tmp_path)
    assert sorted(digests) == sorted(reference)
    changed = sorted(name for name, digest in reference.items() if digests[name] != digest)
    assert not changed, f"Python {version} wrote different bytes: {changed}"
