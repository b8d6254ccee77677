"""Forked worker processes of the stepping kernel.

`Workers` forks up to a given number of processes once per run.  Each
inherits the run's `step_blocks(k, first, end)` through the fork, with
every array it reads, and on each command steps the blocks first..end-1
of level k into the run's level buffers, which lie in anonymous shared
memory, and answers on a pipe.  A worker ends when its command pipe
closes: at `Workers.close`, or when its parent ends.  Only a run that
forks imports this module.
"""

from __future__ import annotations

import os
import pickle
import struct
import warnings

#: the parent's ends of every live worker's pipes: a new worker closes them,
#: so that a worker sees the end of its commands when its own parent closes
#: its command pipe
_PARENT_FDS = set()

#: a worker's command (level, first block, end block) and the length of its
#: answer, 0 when it stepped its blocks, else of its pickled error
_COMMAND = struct.Struct("<iii")
_ANSWER = struct.Struct("<I")


def _read(fd: int, size: int) -> bytes:
    """`size` bytes from the pipe `fd`, fewer at its end."""
    data = b""
    while len(data) < size:
        part = os.read(fd, size - len(data))
        if not part:
            break
        data += part
    return data


def _write(fd: int, data: bytes) -> None:
    """All of `data` into the pipe `fd`."""
    while data:
        data = data[os.write(fd, data):]


def _serve(command: int, answer: int, step_blocks) -> None:
    """A worker's loop: step the blocks each command names, answer it, and
    return at the end of the commands."""
    while True:
        message = _read(command, _COMMAND.size)
        if len(message) < _COMMAND.size:
            return
        try:
            step_blocks(*_COMMAND.unpack(message))
            error = b""
        except BaseException as exc:  # interrupts too: the caller raises it
            import traceback  # a worker's error path only

            text = "".join(traceback.format_exception(type(exc), exc,
                                                      exc.__traceback__))
            try:  # the parent must be able to load it
                error = pickle.dumps((exc, text))
                pickle.loads(error)
            except Exception:
                error = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"),
                                      text))
        _write(answer, _ANSWER.pack(len(error)) + error)


class Workers:
    """Up to `count` forked processes that run `step_blocks` on command,
    fewer when the system gives no more processes; `close` ends them."""

    def __init__(self, count: int, step_blocks):
        self.step_blocks = step_blocks
        self.children = []  # (pid, command fd, answer fd)
        try:
            for _ in range(count):
                if not self._fork():
                    break
        except BaseException:
            self.close()
            raise

    def _fork(self) -> bool:
        """Fork one worker; False when the system gives no process."""
        (take, command), (answer, give) = os.pipe(), os.pipe()
        _PARENT_FDS.update((command, answer))
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks; the
                # threads are OpenBLAS's, which shuts them down at a fork,
                # and a worker calls only ufuncs, os.read and os.write
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                    r"use of fork\(\) may lead to deadlocks in the child",
                    DeprecationWarning)
                pid = os.fork()
        except OSError:
            _PARENT_FDS.difference_update((command, answer))
            for fd in (take, command, answer, give):
                os.close(fd)
            return False
        if pid == 0:  # the worker: it never returns into the caller's stack
            code = 1
            try:
                for fd in _PARENT_FDS:
                    os.close(fd)
                _serve(take, give, self.step_blocks)
                code = 0
            finally:
                os._exit(code)
        os.close(take)
        os.close(give)
        self.children.append((pid, command, answer))
        return True

    def step(self, k: int, bounds: list) -> None:
        """Step the chunks bounds[j]..bounds[j + 1] - 1 of level k's blocks,
        chunk 0 in this process and chunk j in worker j; return when every
        chunk is stepped, and raise the first error, a worker's caused by
        its traceback there."""
        busy = self.children[:len(bounds) - 2]
        for j, (_, command, _) in enumerate(busy, 1):
            _write(command, _COMMAND.pack(k, bounds[j], bounds[j + 1]))
        try:
            self.step_blocks(k, bounds[0], bounds[1])
        finally:  # the workers' blocks are written before anything else
            errors = [self._answer(child) for child in busy]
        for error in errors:
            if error is not None:
                raise error

    @staticmethod
    def _answer(child):
        """None when the worker `child` stepped its blocks, else the
        exception it raised, caused by its traceback there."""
        pid, _, answer = child
        head = _read(answer, _ANSWER.size)
        if len(head) < _ANSWER.size:
            return ChildProcessError(f"worker process {pid} ended without an answer")
        size, = _ANSWER.unpack(head)
        if not size:
            return None
        error, text = pickle.loads(_read(answer, size))
        error.__cause__ = RuntimeError(f"in worker process {pid}:\n{text}")
        return error

    def close(self) -> None:
        """Close the workers' pipes, at which each ends, and wait for each."""
        children, self.children = self.children, []
        for _, command, answer in children:
            _PARENT_FDS.difference_update((command, answer))
            os.close(command)
            os.close(answer)
        for pid, _, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, where SIGCHLD is ignored
                pass
