"""Child launcher for ``run.py``: ``python benchmarks/spawner.py`` (stdin/stdout JSON lines).

``run.py`` starts this process once, while it is still small, and sends it
one request per line: ``{"cmd": [...], "log": path, "timeout": seconds}``.
For each request it runs the command to completion, with standard output
and error going to the log file, and answers one line:
``{"code", "wall_s", "cpu_s", "rss_mb"}``. It exits at end of input.

Linux counts the memory of the forking process in a child's max-RSS (the
pre-exec image), so children forked from ``run.py``, which holds the
generated inputs, would report ``run.py``'s size. Forked from this small
process, each child's max-RSS is its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
