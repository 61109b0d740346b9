"""One task run in a forked child while this process does other work.

:class:`Task` forks a child that runs ``fn(*args)`` and sends the result
back through a pipe with :mod:`marshal`, so ``fn`` must return what
``marshal`` can write (a bytes-like object comes back as ``bytes``). A
child stopped by a ``ValueError`` (``CorpusError``, ``ScoreError``, …) or
an ``OSError``, the errors the CLI reports as the user's, sends nothing,
and :meth:`Task.result` runs ``fn(*args)`` again in this process, which
raises the error a run without workers raises: no message passes between
processes. Where :func:`can_fork` is false the task runs
only in this process, when its result is asked for.
"""

from __future__ import annotations

import marshal
import os
import sys


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether a worker may run beside this process: it has ``os.fork``, runs
    no other thread and may use more than one CPU."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1) and usable_cpus() > 1


# Read ends of the pipes of the tasks whose result is not read yet; a child
# closes them all, so a child never holds another task's pipe open.
_pipes: set[int] = set()


class Task:
    """``fn(*args)``, run in a forked child if :func:`can_fork`.

    Call :meth:`result` once, then :meth:`close`, or use the task as a
    context manager: :meth:`close` kills a child whose result was not read,
    so a child is reaped whether or not this process fails.
    """

    def __init__(self, fn, *args):
        self._fn, self._args = fn, args
        self._pid = self._pipe = None
        if not can_fork():
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            self._child(read_fd, write_fd)
        os.close(write_fd)
        self._pid, self._pipe = pid, read_fd
        _pipes.add(read_fd)

    def _child(self, read_fd: int, write_fd: int):
        """In the forked child: close every task's read end, write the
        marshalled result, or nothing after a ``ValueError`` or ``OSError``,
        and exit with status 0, never returning to the caller's stack; any
        other failure exits with status 1."""
        code = 1
        try:
            for fd in (read_fd, *_pipes):
                os.close(fd)
            try:
                payload = memoryview(marshal.dumps(self._fn(*self._args)))
            except (ValueError, OSError):
                payload = memoryview(b"")
            while payload:
                payload = payload[os.write(write_fd, payload) :]
            code = 0
        finally:
            os._exit(code)

    def result(self):
        """The task's value. A child that died another way (any other exception,
        a signal, a nonzero exit) raises ``RuntimeError`` naming its status."""
        if self._pid is None:
            return self._fn(*self._args)
        _pipes.discard(self._pipe)
        with open(self._pipe, "rb") as pipe:
            self._pipe = None
            payload = pipe.read()
        status = os.waitpid(self._pid, 0)[1]
        pid, self._pid = self._pid, None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise RuntimeError(f"worker {pid} {how}")
        return marshal.loads(payload) if payload else self._fn(*self._args)

    def close(self) -> None:
        """Kill and reap a child whose result was not read."""
        if self._pipe is not None:
            _pipes.discard(self._pipe)
            os.close(self._pipe)
            self._pipe = None
        if self._pid is not None:
            import signal

            pid, self._pid = self._pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def __enter__(self) -> "Task":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
