"""The subcommand dispatch and the run manifest.

``cli`` holds only the parser and a table from subcommand to module; each
handler lives in its own module of ``dischargekit.commands``. These tests
tie the table to the parser and pin what the manifest records, so moving a
handler cannot rename an option or change a config hash.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time
from datetime import datetime, timezone

import pytest

from dischargekit import cli, commands

# The manifest's config_hash for one argv of each subcommand, pinned so that no
# change to the parser or the dispatch adds, drops or renames a parsed option.
CONFIG_HASHES = {
    ("extract", "--corpus", "corpus.jsonl", "--out", "ext"):
        "e431e856117cd7789f65cc4f316bbdeb30feb3bf9f6a59b4e070bfab3b8f12a8",
    ("score", "--candidates", "candidates.jsonl", "--references", "targets.jsonl", "--metrics", "meteor,rouge_l",
     "--threads", "2", "--out", "native.csv"):
        "53d2a0d58842351064e3366de06f5bcd40a729f26e7d0f65412b785fa7e039d5",
    ("select", "--scores", "native.csv", "--scores", "external.csv", "--candidates", "candidates.jsonl",
     "--config", "des4", "--target", "di", "--overall", "overall.csv", "--out", "des4.csv"):
        "f3d80d57d1e751fc511554685e3baacdee15c0dc2d2bcb39a0375497dd7ab94a",
    ("reorder", "--corpus", "corpus.jsonl", "--reference-targets", "targets.jsonl", "--mode", "per-doc",
     "--budget", "50", "--out", "reordered.jsonl"):
        "0e3ba059b75d14b984d436b8e9f6e53f2f6bb84a1a82253500aa2ea2bc941904",
    ("evaluate", "--submission", "des1.csv", "--references", "targets.jsonl", "--target", "bhc",
     "--external", "ext.csv", "--out", "evaluate.csv"):
        "961427c69a78eeb77ba1da339bf761ef5fcc6720c21bc0e53c883b5f4cc2a66e",
    ("correlate", "--scores", "native.csv", "--overall", "overall.csv", "--mode", "per-target",
     "--out", "corr.csv"):
        "1e3eb2192b1b34cd515a1cb71127f130b09a8cc0ed5f44f73eb2de3716a1364d",
    ("simulate", "--docs", "4", "--models", "2", "--seed", "3", "--config", "des2", "--out", "sim"):
        "237730636b695b71b1ef5605c8155d59bfc8a68b2ee73c31d179a584f5940e70",
}


def _subcommands() -> list[str]:
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_every_subcommand_resolves_to_a_module_with_its_handler():
    assert sorted(_subcommands()) == sorted(cli.COMMANDS)
    for name, module in cli.COMMANDS.items():
        assert callable(importlib.import_module(module).run), name


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_every_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dischargekit {name}")


def test_config_hash_of_each_subcommand_is_pinned():
    assert sorted(argv[0] for argv in CONFIG_HASHES) == sorted(cli.COMMANDS)
    parser = cli.build_parser()
    got = {argv: commands._config_hash(parser.parse_args(argv)) for argv in CONFIG_HASHES}
    assert got == CONFIG_HASHES


@pytest.mark.parametrize("clock_ns", [1_700_000_000_000_000_000, 1_700_000_000_250_000_000, 951_782_399_999_999_999])
def test_manifest_timestamp_is_the_datetime_text(clock_ns, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time_ns", lambda: clock_ns)
    args = cli.build_parser().parse_args(["extract", "--corpus", "c.jsonl", "--out", str(tmp_path)])
    commands._write_manifest(tmp_path, "extract", args, [])
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    # datetime.now() floors the nanosecond clock to whole microseconds.
    assert manifest["timestamp"] == datetime.fromtimestamp(clock_ns // 1000 / 1e6, timezone.utc).isoformat()
    assert list(manifest) == ["command", "config_hash", "inputs", "timestamp", "version"]
