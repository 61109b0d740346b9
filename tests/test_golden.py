"""Golden outputs: every output ``replay.py`` builds keeps the bytes in ``tests/data/golden.json``.

The ``replayed`` fixture runs ``replay.replay`` once, in-process, under the
running interpreter; its docstring lists the commands. This test compares
the sha256 of each of the 65 golden outputs (every file under
``work/golden`` but the manifests) and each of the pinned cells: every
float of the score CSVs ``native``, ``ds``, ``external``, ``scored``,
``sparse`` and ``submission_external`` and of the pooled and per-target
correlations, as ``float.hex``, which the ``.10g`` CSV text would round. The
per-document overall CSV is written with ``repr``, so its digest pins every
bit of ``overall_by_document``.

A change that moves a digest must name the output and the reason in
``CHANGES.md``. To write the file afresh (only for a deliberate, documented
output change): ``PYTHONPATH=src python tests/replay.py --write``.
"""

from __future__ import annotations

import json

from replay import GOLDEN


def test_golden_outputs_unchanged(replayed):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests, cells = replayed["digests"], replayed["cells"]
    assert sorted(digests) == sorted(expected["digests"])
    changed = [k for k, v in expected["digests"].items() if digests[k] != v]
    assert not changed, f"outputs changed: {changed}"
    assert sorted(cells) == sorted(expected["cells"])
    for name, want in expected["cells"].items():
        assert sorted(cells[name]) == sorted(want), name
        drift = [k for k, v in want.items() if cells[name][k] != v]
        assert not drift, f"{name}: {len(drift)} cells drifted, first {drift[:3]}"
