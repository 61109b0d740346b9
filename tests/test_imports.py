from __future__ import annotations

import ast
import importlib
import json
import re
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dischargekit
from dischargekit import cli, corpus, synthetic

# numpy, which the package never needs; dataclasses and inspect, which cost
# every process about 10 ms to import; fractions with decimal, and datetime,
# which the DES weights and the manifest timestamp do without; multiprocessing,
# concurrent.futures and pickle, which the forked workers do without; and the
# scoring, table and selection modules, which extract and reorder never load.
NEVER = ("numpy", "dataclasses", "inspect", "fractions", "decimal", "datetime", "multiprocessing",
         "concurrent.futures", "pickle")
METRIC_SIDE = ("dischargekit.scores", "dischargekit.relevance", "dischargekit.readability", "dischargekit.stemmer")
HEAVY = (*NEVER, *METRIC_SIDE, "dischargekit.tables", "dischargekit.des", "dischargekit.analysis")

PROBE = """
import json, sys
heavy = {heavy!r}
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from dischargekit import cli
report = {{"import": loaded(), "traceback": "traceback" in sys.modules, "codes": [], "seen": []}}
for argv in {steps!r}:
    report["codes"].append(cli.main(argv))
    report["seen"].append(loaded())
report["package"] = sorted(m for m in sys.modules if m.partition(".")[0] == "dischargekit")
print(json.dumps(report))
"""


def run_probe(tmp_path, steps) -> dict:
    """Import the CLI in a fresh interpreter, run ``steps`` and report the heavy modules after each."""
    code = PROBE.format(heavy=HEAVY, steps=[[str(a) for a in argv] for argv in steps])
    src = str(Path(dischargekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(steps), proc.stderr
    return report


def test_importing_the_cli_loads_no_traceback(tmp_path):
    report = run_probe(tmp_path, [])
    assert report["import"] == []
    assert report["traceback"] is False
    # No handler, reader or hashing module until a subcommand runs.
    assert report["package"] == ["dischargekit", "dischargekit.cli"]


@pytest.fixture(scope="module")
def every_step(tmp_path_factory):
    """Every subcommand run in its own fresh interpreter: (work directory, step name -> argv,
    step name -> probe report)."""
    tmp_path = tmp_path_factory.mktemp("steps")
    summaries, candidates = synthetic.generate_synthetic_corpus(3, 2, seed=4)
    corpus.write_corpus(tmp_path / "corpus.jsonl", summaries)
    corpus.write_candidates(tmp_path / "candidates.jsonl", candidates)
    ext = tmp_path / "ext"
    assert cli.main(["extract", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(ext)]) == 0
    header = ("hadm_id", "model_id", "target", "metric", "value")
    external = tmp_path / "external.csv"
    corpus.write_csv_records(
        external,
        header,
        [(c.hadm_id, c.model_id, c.target.value, "medcon", 0.1 + 0.07 * i) for i, c in enumerate(candidates)],
    )
    overall = tmp_path / "overall.csv"
    corpus.write_csv_records(
        overall,
        ("hadm_id", "model_id", "target", "value"),
        [(c.hadm_id, c.model_id, c.target.value, (i * 0.37) % 1) for i, c in enumerate(candidates)],
    )
    di_docs = [c.hadm_id for c in candidates if c.target.value == "di" and c.model_id == "model_a"]
    submission_external = tmp_path / "submission_external.csv"
    corpus.write_csv_records(
        submission_external,
        header,
        [(doc, "submission", "di", m, 0.5) for doc in di_docs for m in ("alignscore", "bertscore", "medcon")],
    )
    cands = tmp_path / "candidates.jsonl"
    score = ["score", "--candidates", cands]
    references, bodies = ["--references", ext / "targets.jsonl"], ["--against-ds", ext / "bodies.jsonl"]
    select = ["select", "--scores", tmp_path / "native.csv", "--scores", external, "--candidates", cands,
              "--target", "di"]
    # In order: a step may read what an earlier one wrote.
    steps = {
        "extract": ["extract", "--corpus", tmp_path / "corpus.jsonl", "--out", tmp_path / "ext2"],
        "reorder": ["reorder", "--mode", "per-doc", "--corpus", tmp_path / "corpus.jsonl",
                    "--reference-targets", ext / "targets.jsonl", "--out", tmp_path / "reordered.jsonl"],
        "score": [*score, *references, "--out", tmp_path / "native.csv"],
        "score_ds": [*score, *bodies, "--metrics", "meteor,rouge_l", "--out", tmp_path / "ds.csv"],
        "score_external": [*score, *references, "--external", external, "--out", tmp_path / "merged.csv"],
        "select_des1": [*select, "--config", "des1", "--out", tmp_path / "des1.csv"],
        "select_des4": [*select, "--config", "des4", "--overall", overall, "--out", tmp_path / "des4.csv"],
        "select_des5": [*select, "--config", "des5", "--ranking", "model_b,model_a", "--out", tmp_path / "des5.csv"],
        "correlate": ["correlate", "--scores", tmp_path / "native.csv", "--scores", external,
                      "--overall", overall, "--out", tmp_path / "corr.csv"],
        "evaluate": ["evaluate", "--submission", tmp_path / "des1.csv", "--references", ext / "targets.jsonl",
                     "--target", "di", "--external", submission_external, "--out", tmp_path / "evaluate.csv"],
        "simulate": ["simulate", "--docs", "2", "--models", "2", "--config", "des1", "--out", tmp_path / "sim"],
    }
    return tmp_path, steps, {name: run_probe(tmp_path, [argv]) for name, argv in steps.items()}


def _loaded(report) -> list[str]:
    """The heavy modules loaded once the probe's one step had run."""
    return report["seen"][0]


def test_extract_and_reorder_never_load_numpy_or_scoring_modules(every_step):
    tmp_path, _, reports = every_step
    base = ["dischargekit", "dischargekit.cli", "dischargekit.commands", "dischargekit.corpus", "dischargekit.data"]
    assert reports["extract"]["package"] == sorted([*base, "dischargekit.commands.extract"])
    # reorder's default scorer is ROUGE-1, so it loads relevance, its stemmer and textprep.
    assert reports["reorder"]["package"] == sorted(
        [*base, "dischargekit.commands.reorder", "dischargekit.relevance", "dischargekit.reorder",
         "dischargekit.stemmer", "dischargekit.textprep"]
    )
    assert [_loaded(reports[name]) for name in ("extract", "reorder")] == [
        [], ["dischargekit.relevance", "dischargekit.stemmer"]
    ]
    assert (tmp_path / "reordered.jsonl").read_text(encoding="utf-8").count("\n") == 3


def test_no_subcommand_loads_numpy(every_step):
    tmp_path, _, reports = every_step
    assert [name for name, report in reports.items() if "numpy" in _loaded(report)] == []
    # score loads the metric side, and the table code only to merge --external
    # scores; it never loads des or analysis.
    assert _loaded(reports["score"]) == _loaded(reports["score_ds"]) == sorted(METRIC_SIDE)
    assert _loaded(reports["score_external"]) == sorted([*METRIC_SIDE, "dischargekit.tables"])
    native = (tmp_path / "native.csv").read_text(encoding="utf-8").splitlines()
    merged = (tmp_path / "merged.csv").read_text(encoding="utf-8").splitlines()
    candidates = corpus.load_candidates(tmp_path / "candidates.jsonl")
    assert len(merged) == len(native) + len(candidates)


# The steps that may fork a worker: every scoring step, and select for its candidates.
WORKER_STEPS = ["evaluate", "score", "score_ds", "score_external", "select_des1", "select_des4", "select_des5",
                "simulate"]


def test_only_the_steps_that_fork_load_the_worker_module(every_step):
    _, _, reports = every_step
    assert sorted(name for name, report in reports.items() if "dischargekit.workers" in report["package"]) == WORKER_STEPS


@pytest.mark.parametrize("step", ["select_des1", "select_des4", "select_des5", "correlate"])
def test_select_and_correlate_never_load_the_metric_side(every_step, step):
    _, _, reports = every_step
    assert sorted(set(METRIC_SIDE) & set(reports[step]["package"])) == []
    assert "dischargekit.tables" in _loaded(reports[step])


def test_only_des4_and_correlate_load_the_analysis_module(every_step):
    # des imports analysis inside derive_des4_weights, so the other steps,
    # select with des1..des3 and des5 among them, never compile it.
    _, _, reports = every_step
    loading = sorted(name for name, report in reports.items() if "dischargekit.analysis" in _loaded(report))
    assert loading == ["correlate", "select_des4"]


def test_no_subcommand_loads_dataclasses_or_inspect(every_step):
    # A later @dataclass, a module that needs inspect, a Fraction or a datetime
    # would bring their import back into every CLI process; together the steps
    # load every module.
    _, _, reports = every_step
    assert [name for name, report in reports.items() if set(NEVER) & set(_loaded(report))] == []
    assert {m for report in reports.values() for m in report["package"]} >= _package_modules()


def _package_modules() -> set[str]:
    """The dotted name of every module and package of dischargekit."""
    root = Path(dischargekit.__file__).parents[1]
    names = set()
    for path in Path(dischargekit.__file__).parent.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def _command_modules(modules) -> list[str]:
    return [m for m in modules if m.startswith("dischargekit.commands.")]


def test_each_step_loads_only_its_own_command_module(every_step):
    _, steps, reports = every_step
    loaded = {name: _command_modules(report["package"]) for name, report in reports.items()}
    assert loaded == {name: [f"dischargekit.commands.{argv[0]}"] for name, argv in steps.items()}


# Runs one step as ``python -m dischargekit.cli`` does (as the benchmark runs
# every step) and prints every module loaded when the interpreter exits.
MODULE_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules))))
sys.argv = ["dischargekit.cli", *{argv!r}]
runpy.run_module("dischargekit.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def module_runs(every_step) -> dict[str, list[str]]:
    """Every step rerun as ``python -m dischargekit.cli``: step name -> the modules it loaded."""
    tmp_path, steps, _ = every_step
    src = str(Path(dischargekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {}
    for name, argv in steps.items():
        code = MODULE_PROBE.format(argv=[str(a) for a in argv])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = json.loads(proc.stdout.splitlines()[-1])
    return runs


def test_a_module_run_never_imports_the_cli_module(module_runs, every_step):
    # Under -m, cli.py runs as __main__; importing dischargekit.cli too would
    # compile it a second time.
    _, steps, _ = every_step
    assert [name for name, modules in module_runs.items() if "dischargekit.cli" in modules] == []
    loaded = {name: _command_modules(modules) for name, modules in module_runs.items()}
    assert loaded == {name: [f"dischargekit.commands.{argv[0]}"] for name, argv in steps.items()}
    assert [name for name, modules in module_runs.items() if set(NEVER) & set(modules)] == []
    assert sorted(name for name, modules in module_runs.items() if "dischargekit.workers" in modules) == WORKER_STEPS


def test_every_public_name_resolves_to_its_submodule_binding():
    wrong = [
        name
        for name, module in dischargekit._SUBMODULE.items()
        if getattr(dischargekit, name) is not getattr(importlib.import_module(f"dischargekit.{module}"), name)
    ]
    assert wrong == []


def test_public_names_are_the_documented_forty_eight():
    assert len(dischargekit.__all__) == 48
    assert dischargekit.__version__ == "0.1.0"
    namespace: dict = {}
    exec("from dischargekit import *", namespace)
    assert set(dischargekit.__all__) <= set(namespace)


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dischargekit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from dischargekit import no_such_name", {})


def test_every_public_definition_has_a_caller_outside_the_tests():
    # A top-level function or class, public or private, is named somewhere in
    # src/, demos/ or benchmarks/ (as code, or as a whole dotted-name string
    # such as the benchmark tracer's spans), or is a documented public name.
    # A non-dunder method is called there as ``x.name(...)`` or named as
    # ``Class.name`` in such a string; a property is read as ``x.name``. So
    # API and helpers that only tests call cannot grow back unseen.
    root = Path(__file__).resolve().parents[1]
    named: set[str] = set()
    called: set[str] = set()
    for folder in ("src", "demos", "benchmarks"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"[\w.]+", node.value):
                        parts = node.value.split(".")
                        named.update(parts)
                        called.update(map(".".join, zip(parts, parts[1:])))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)

    def dunder(name: str) -> bool:
        return name.startswith("__") and name.endswith("__")

    def is_property(node) -> bool:
        return any(ast.unparse(d) in ("property", "cached_property") for d in node.decorator_list)

    unused = []
    package = root / "src" / "dischargekit"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or dunder(node.name):
                continue
            if node.name not in named and node.name not in dischargekit._SUBMODULE:
                unused.append(f"{module}.{node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not dunder(method.name):
                    used = named if is_property(method) else called
                    if method.name not in used and f"{node.name}.{method.name}" not in used:
                        unused.append(f"{module}.{node.name}.{method.name}")
    assert unused == []
