"""dischargekit benchmark: drives the real CLI as a closed loop with one client.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload {select_large,long_docs} \
        --seed N --seconds S --trace {0,1}

Inputs are generated from ``--seed`` before any timed region. Every CLI
invocation is a fresh ``python -m dischargekit.cli`` process that starts
after the previous one has ended, so interpreter start-up, imports and
cold caches are paid as a user pays them. Children are started through
``spawner.py``, so that their max-RSS is their own.

``--trace 0`` repeats (set-up sample, CLI sequence with calibration samples)
until ``--seconds`` have been measured and reports the end-to-end metrics:
``wall_s`` (the sum of each step's fastest invocation, scaled by the
host-speed calibration below), ``setup_s`` and ``peak_rss_mb`` (medians).
``--trace 1`` repeats rounds of (untraced sequence, traced sequence, traced
half-size sequence) and reports the per-layer metrics of ``layers.py``.

Outputs are checked outside the timed region: content checks on the first
sequence of each size, and byte-identical outputs (manifests excluded) for
every later sequence of the same seed, traced or not. A nonzero exit or a
failed check counts as a failed invocation. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import STEP_METRICS, WORKLOADS, prepare, steps  # noqa: E402

ROOT = Path.cwd()
SETUP_MIN_SAMPLES = 9
CHILD_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Host-speed calibration. A fixed pure-Python job (token counting and an LCS
# table, the kind of work the CLI does) runs in this process before every
# untraced CLI step. Its fastest time in a run measures how fast the host
# was during that run; wall_s is rescaled to a host on which the job's
# fastest time is CAL_REF_S. The job never touches the program under test,
# so a change to the program moves wall_s in full.
CAL_REF_S = 0.02
CAL_SAMPLES = 3
_CAL_WORDS = [f"w{(i * 7919) % 4001}" for i in range(40000)]
_CAL_TEXT = " ".join(_CAL_WORDS)
_CAL_A, _CAL_B = _CAL_WORDS[:250], _CAL_WORDS[3:253]


@dataclass
class Invocation:
    step: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


class Launcher:
    """The ``spawner.py`` process through which every CLI child is started."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True,
        )

    def run(self, cmd: list[str], log: Path) -> tuple[int, float, float, float]:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "log": str(log), "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_mb"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise


_launcher: Launcher | None = None


def spawn(cmd: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys s, max RSS MB)."""
    return _launcher.run(cmd, log)


def calibrate() -> float:
    """Wall time of the fixed calibration job."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for tok in _CAL_TEXT.split():
        counts[tok] = counts.get(tok, 0) + 1
    prev = [0] * (len(_CAL_B) + 1)
    for x in _CAL_A:
        cur = [0]
        for j, y in enumerate(_CAL_B, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return time.perf_counter() - start


def measure_setup(work: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    log = work / "setup.log"
    code, wall, _, _ = spawn([sys.executable, "-c", "import dischargekit.cli"], log)
    if code != 0:
        raise RuntimeError(f"import dischargekit.cli failed: {log.read_text(errors='replace')}")
    return wall


def run_sequence(inputs, out: Path, spans: Path | None, cal: list[float] | None = None) -> tuple[list[Invocation], float]:
    """Run the workload's CLI steps in order; traced when ``spans`` is a directory.

    With ``cal`` a list, calibration samples are appended to it before each step.
    """
    out.mkdir(parents=True)
    invocations = []
    for step in steps(inputs, out):
        if cal is not None:
            cal.extend(calibrate() for _ in range(CAL_SAMPLES))
        if spans is None:
            cmd = [sys.executable, "-m", "dischargekit.cli", *step.argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans / f"{step.metric}.json"), "--", *step.argv]
        code, wall, cpu, rss = spawn(cmd, out / f"{step.metric}.log")
        inv = Invocation(step.metric, code, wall, cpu, rss)
        if code != 0:
            tail = (out / f"{step.metric}.log").read_text(errors="replace")[-400:]
            inv.failures.append(f"exit code {code}: {tail}")
        invocations.append(inv)
    return invocations, sum(inv.wall_s for inv in invocations)


def digests(inputs, out: Path) -> dict[str, str]:
    """sha256 of each declared output file (manifests are not outputs)."""
    result = {}
    for step in steps(inputs, out):
        for rel in step.outputs:
            path = out / rel
            result[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return result


def verify(inputs, out: Path, invocations: list[Invocation], reference: dict[str, str] | None, content: bool):
    """Attach check failures to the invocations; returns this sequence's digests."""
    import checks  # needs src/ and tests/ on sys.path, which main() adds

    got = digests(inputs, out)
    by_step = {inv.step: inv for inv in invocations}
    for step in steps(inputs, out):
        for rel in step.outputs:
            if reference is not None and got[rel] != reference[rel]:
                by_step[step.metric].failures.append(f"{rel}: output differs from the first run of this seed")
    if content:
        try:
            found = checks.check(inputs, out)
        except Exception:  # a malformed or missing output fails every step's check
            message = traceback.format_exc(limit=2)
            found = {inv.step: [message] for inv in invocations}
        for step, failures in found.items():
            by_step[step].failures.extend(failures)
    return got


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, load_before) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def _step_times(sequences: list[list[Invocation]], reduce) -> dict[str, float]:
    """Per-step wall time over the sequences, reduced by ``reduce`` (min, median)."""
    return {
        step: reduce([inv.wall_s for seq in sequences for inv in seq if inv.step == step])
        for step in STEP_METRICS
        if any(inv.step == step for inv in sequences[0])
    }


def run_untraced(args, work: Path, inputs) -> tuple[dict, dict, list[Invocation], dict]:
    setup, cal, sequences, walls, reference, measured = [], [], [], [], None, 0.0
    while not sequences or measured < args.seconds:
        start = time.perf_counter()
        # A set-up sample before each sequence spreads them over the run.
        setup.append(measure_setup(work))
        out = work / f"seq{len(sequences)}"
        invocations, wall = run_sequence(inputs, out, None, cal)
        measured += time.perf_counter() - start
        got = verify(inputs, out, invocations, reference, content=reference is None)
        reference = reference or got
        sequences.append(invocations)
        walls.append(wall)
        shutil.rmtree(out)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(measure_setup(work))
    fastest = _step_times(sequences, min)
    report = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(fastest.values()) * CAL_REF_S / min(cal),
        "peak_rss_mb": statistics.median(max(inv.rss_mb for inv in seq) for seq in sequences),
    }
    extra = {
        "wall_raw_s": sum(fastest.values()),
        "wall_median_s": statistics.median(walls),
        "cal_min_s": min(cal),
        "cal_median_s": statistics.median(cal),
        **{f"cli.{step}": value for step, value in _step_times(sequences, statistics.median).items()},
        **{f"cli.{step[:-2]}_min_s": value for step, value in fastest.items()},
        "cli.cpu_s": statistics.median(sum(inv.cpu_s for inv in seq) for seq in sequences),
        "sequences": len(sequences),
        "setup_runs": len(setup),
    }
    return report, extra, [inv for seq in sequences for inv in seq], reference


def run_traced(args, work: Path, inputs) -> tuple[dict, dict, list[Invocation], dict]:
    half = prepare(args.workload, "tiny_half" if args.size == "tiny" else "half", args.seed, work / "in_half")
    rounds, everything, reference, half_reference, measured = [], [], None, None, 0.0
    while not rounds or measured < args.seconds:
        base = work / f"round{len(rounds)}"
        plain, wall_plain = run_sequence(inputs, base / "plain", None)
        got = verify(inputs, base / "plain", plain, reference, content=reference is None)
        reference = reference or got
        runs = {}
        for name, inp, ref in (("full", inputs, reference), ("half", half, half_reference)):
            spans = base / f"spans_{name}"
            spans.mkdir(parents=True)
            invocations, wall = run_sequence(inp, base / name, spans)
            got = verify(inp, base / name, invocations, ref, content=ref is None)
            if name == "half":
                half_reference = half_reference or got
            payloads = [json.loads(p.read_text()) for p in sorted(spans.glob("*.json"))]
            runs[name] = (tracer.summarize(payloads), wall, invocations)
            everything += invocations
        everything += plain
        measured += wall_plain + runs["full"][1] + runs["half"][1]
        untraced = {
            "steps": _step_times([plain], min),
            "cpu_s": sum(inv.cpu_s for inv in plain),
            "wall_s": wall_plain,
            "traced_wall_s": runs["full"][1],
        }
        rounds.append(layers.layer_metrics(runs["full"][0], runs["half"][0], untraced))
        shutil.rmtree(base)
    report = {name: statistics.median(r[name] for r in rounds) for name in layers.PER_LAYER}
    return report, {"rounds": len(rounds)}, everything, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dischargekit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/dischargekit/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a dischargekit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))

    global _launcher
    load_before = os.getloadavg()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Started before any input exists, while this process is small.
    _launcher = Launcher()
    try:
        inputs = prepare(args.workload, args.size, args.seed, work / "in")
        run = run_traced if args.trace else run_untraced
        report, extra, invocations, outputs = run(args, work, inputs)
    finally:
        _launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = layers.PER_LAYER if args.trace else END_TO_END
    failed = [inv for inv in invocations if inv.failures]
    for inv in failed[:10]:
        print(f"FAILED {inv.step}: {'; '.join(inv.failures)[:600]}", file=sys.stderr)
    width = max(len(name) for name in [*report, *extra])
    print(f"{'metric'.ljust(width)}  value  unit")
    for name, value in [*report.items(), *extra.items()]:
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"{name.ljust(width)}  {value:.6g}  {unit}")
    print(f"{'error_rate'.ljust(width)}  {len(failed) / len(invocations):.6g}  ratio  ({len(failed)}/{len(invocations)} invocations)")
    print(json.dumps({"environment": environment(args, load_before)}, sort_keys=True))
    print(json.dumps({"outputs": outputs}, sort_keys=True))
    bad = [name for name, value in report.items() if not math.isfinite(value)]
    result = {
        "correct": not failed and not bad,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
