"""The subcommands of :mod:`dischargekit.cli`, one module each, and what they share.

A CLI process imports only its own subcommand's module, so with no bytecode
cache it compiles no other handler. This package holds the helpers two or
more subcommands use: the run manifest, the overall-score CSV reader, the
score-table loader and a few small parsers.
"""

from __future__ import annotations

import hashlib
import json
import time
from functools import reduce
from operator import add
from pathlib import Path

from .. import __version__, corpus
from ..corpus import TargetKind


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(args) -> str:
    # --threads is left out: no output depends on it.
    payload = {k: str(v) for k, v in sorted(vars(args).items()) if k != "threads"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _timestamp() -> str:
    """``datetime.now(timezone.utc).isoformat()``, without loading ``datetime``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)  # floored to whole microseconds, as datetime.now() does
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{text}.{micros:06d}+00:00" if micros else f"{text}+00:00"


def _write_manifest(out_path: Path, command: str, args, inputs: list, counts: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config_hash": _config_hash(args),
        "inputs": {str(p): _sha256(p) for p in sorted(inputs, key=str)},
        "timestamp": _timestamp(),
        "version": __version__,
    }
    if counts is not None:
        manifest["counts"] = counts
    if out_path.is_dir():
        target = out_path / "manifest.json"
    else:
        target = out_path.with_name(out_path.name + ".manifest.json")
    corpus.write_json(target, manifest)


def _read_overall_csv(path, target=None) -> dict[TargetKind, dict[tuple[str, str], float]]:
    """(hadm_id, model_id) -> overall per target; every row is checked, only ``target``'s kept if given."""
    out: dict[TargetKind, dict[tuple[str, str], float]] = {}
    header = ("hadm_id", "model_id", "target", "value")
    records = corpus.read_csv_records(path, header, corpus.ScoreError, key=header[:3])
    for rowno, (hadm_id, model_id, kind, raw) in records:
        kind, value = corpus.parse_score_cell(path, rowno, kind, raw)
        if target is None or kind is target:
            out.setdefault(kind, {})[(hadm_id, model_id)] = value
    return out


def _load_score_tables(paths, targets, documents=None, models=None) -> dict:
    """One ScoreTable per target, filled from the score CSVs in one pass over each."""
    from .. import tables

    builder = tables.ScoreTableBuilder(targets, documents, models)
    for path in paths:
        builder.read_csv(path)
    return builder.tables()


def _metric_names(value: str | None) -> tuple[str, ...] | None:
    """The names of a ``--metrics`` list, None when the flag is absent; an empty name is an error."""
    names = None if value is None else tuple(value.split(","))
    if names is not None and "" in names:
        raise ValueError(f"--metrics {value!r}: empty metric name")
    return names


def _preset_or_file(name: str, choices: str) -> des.DesConfig:
    """The des1..des3 preset called ``name``, else the config in the JSON file ``name``."""
    from .. import des

    if name in des.PRESETS:
        return des.PRESETS[name]
    if Path(name).exists():
        try:
            return des.load_des_config(name)
        except des.DesConfigError as exc:
            raise des.DesConfigError(f"{name}: {exc}") from None
    raise des.DesConfigError(f"unknown config {name!r}: expected one of {choices} or a JSON path")


def _mean(values) -> float:
    """Left-to-right float mean (0.0 when empty); ``sum()`` compensates from
    Python 3.12 on, which would move the last bit between interpreters."""
    values = list(values)
    return reduce(add, values, 0.0) / max(len(values), 1)
