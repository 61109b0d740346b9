"""Command-line pipeline: extract, score, select, reorder, evaluate, correlate, simulate.

Every subcommand is deterministic given its inputs and flags, works purely
on local files, and writes a manifest (command, config hash, input digests)
next to its outputs. Exit codes: 0 success, 1 user or data error, 2
internal error or a command-line usage error reported by argparse.

This module holds only the parser and :func:`main`. Each subcommand's
handler is ``run(args)`` in its own module of :mod:`dischargekit.commands`
(see :data:`COMMANDS`), and a process imports, and with no bytecode cache
compiles, only the one its subcommand needs.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from . import __version__

USER_ERRORS = (ValueError, OSError)

# Subcommand -> the module that runs it.
COMMANDS = {
    "extract": "dischargekit.commands.extract",
    "score": "dischargekit.commands.score",
    "select": "dischargekit.commands.select",
    "reorder": "dischargekit.commands.reorder",
    "evaluate": "dischargekit.commands.evaluate",
    "correlate": "dischargekit.commands.correlate",
    "simulate": "dischargekit.commands.simulate",
}


def _add_threads(parser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap on worker processes; default: usable CPUs; results never depend on it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dischargekit",
        description="Deterministic evaluation and expert selection for generated discharge-summary sections.",
    )
    parser.add_argument("--version", action="version", version=f"dischargekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract BHC/DI targets from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--headers", help="custom known-header list file")

    p = sub.add_parser("score", help="score candidates with the native metric suite")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", help="targets.jsonl with gold BHC/DI texts")
    p.add_argument("--against-ds", help="bodies.jsonl; score against the whole document body")
    p.add_argument("--metrics", help="comma-separated metric list")
    p.add_argument("--external", action="append", default=[], help="external score CSV (repeatable)")
    p.add_argument("--out", required=True)
    _add_threads(p)

    p = sub.add_parser(
        "select",
        help="run an expert-selection strategy",
        description="Run an expert-selection strategy. When more than one CPU is usable, a second process "
        "reads --candidates while this one reads --scores; no output depends on it.",
    )
    p.add_argument("--scores", action="append", default=[], required=True, help="score CSV (repeatable)")
    p.add_argument("--candidates", required=True)
    p.add_argument("--config", required=True, help="preset name (des1..des5) or JSON path")
    p.add_argument("--target", required=True, choices=["bhc", "di"])
    p.add_argument("--ranking", help="comma-separated model ranking (des5)")
    p.add_argument("--overall", help="per-document overall CSV (des4)")
    p.add_argument("--lenient", action="store_true", help="drop criteria with missing cells")
    p.add_argument("--out", required=True, help="submission CSV path")

    p = sub.add_parser("reorder", help="split, rank, and truncate document sections")
    p.add_argument("--corpus", required=True)
    p.add_argument("--reference-targets", help="targets.jsonl used to score section relevance")
    p.add_argument("--target", default="di", choices=["bhc", "di"])
    p.add_argument("--scorer", default="rouge1", choices=["rouge1", "external"])
    p.add_argument("--section-scores", help="external per-section score CSV")
    p.add_argument("--mode", default="global", choices=["global", "per-doc"])
    p.add_argument("--apply-ranking", help="apply an existing header-ranking JSON")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--headers", help="custom known-header list file")
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("evaluate", help="score a submission and report the overall score")
    p.add_argument("--submission", required=True, help="CSV with hadm_id,text")
    p.add_argument("--references", required=True, help="targets.jsonl")
    p.add_argument("--target", required=True, choices=["bhc", "di"])
    p.add_argument("--external", action="append", default=[], help="external score CSV (repeatable)")
    p.add_argument("--model-id", default="submission")
    p.add_argument("--out", required=True, help="report CSV path")
    _add_threads(p)

    p = sub.add_parser("correlate", help="correlate score columns with overall scores")
    p.add_argument("--scores", action="append", default=[], required=True)
    p.add_argument("--overall", required=True, help="CSV with hadm_id,model_id,target,value")
    p.add_argument("--mode", default="pooled", choices=["pooled", "per-target"])
    p.add_argument("--metrics", help="comma-separated metric subset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="synthetic end-to-end demo with a leaderboard")
    p.add_argument("--docs", type=int, default=50)
    p.add_argument("--models", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default="oracle", help="oracle, des1..des3, des5, or a JSON path")
    p.add_argument("--out", required=True, help="output directory")
    _add_threads(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return importlib.import_module(COMMANDS[args.command]).run(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


def __getattr__(name: str):
    # benchmarks/tracer.py wraps cli._write_manifest; it lives with the handlers.
    if name != "_write_manifest":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .commands import _write_manifest

    return _write_manifest


if __name__ == "__main__":
    sys.exit(main())
