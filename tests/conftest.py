from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dischargekit import corpus
from replay import replay


@pytest.fixture
def small_corpus(tmp_path):
    """Three-document corpus JSONL with both target sections present."""
    docs = []
    for i in range(3):
        text = (
            f"Chief Complaint:\nfever and cough day {i}.\n"
            f"History of Present Illness:\npatient number {i} felt unwell for two days.\n"
            f"Brief Hospital Course:\nthe patient improved steadily on day {i}.\n"
            f"Discharge Medications:\nnone listed here.\n"
            f"Discharge Instructions:\nrest at home and drink water {i}.\n"
            f"Followup Instructions:\nclinic visit next week."
        )
        docs.append((f"10{i}", text))
    path = tmp_path / "corpus.jsonl"
    corpus.write_corpus(
        path,
        [
            corpus.DischargeSummary(hadm_id=h, full_text=t, body_without_targets="")
            for h, t in docs
        ],
    )
    return path


@pytest.fixture(scope="session")
def replayed(tmp_path_factory) -> dict:
    """``replay.replay`` run once, in-process: golden digests, pinned cells and CSV float digests."""
    return replay(tmp_path_factory.mktemp("replay"))
