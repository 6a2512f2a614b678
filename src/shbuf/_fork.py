"""One way to run a map in two processes.

``map_in_two_processes(func, items)`` forks a child that maps ``func`` over
the odd-indexed items while this process maps it over the even-indexed
ones, and returns every result in item order. ``forks(work, break_even)`` is
the gate its callers share: a fork only where Linux lets this process run on
two CPUs, no other Python thread exists, and the caller's estimate of the
work reaches the break-even the caller measured for it. The forest trainer
and the flip-probability sweep both go through here, so the package forks,
reaps, kills and re-raises in one place.

Processes, not threads: the work is many small Python or numpy calls, which
the interpreter lock would serialise. A child's results come back through a
pipe as ``marshal`` data, which the interpreter has loaded already, so a
result must be built of ints, floats, strings, tuples, lists and the like:
nested objects are sent flat by their callers. Only an exception crosses the
pipe pickled, and ``pickle`` is imported only when one does.
"""

from __future__ import annotations

import marshal
import os
import threading
import warnings
from typing import Callable, Optional, Sequence


def forks(work: float, break_even: float) -> bool:
    """Whether work of size ``work`` runs in two processes, given the size ``break_even`` from which that pays.

    Only where the host lets this process run on two CPUs and no other
    Python thread exists: a forked child holds a copy of every lock another
    thread held, and no thread to release it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        work >= break_even
        and affinity is not None
        and len(affinity(0)) >= 2
        and threading.active_count() == 1
    )


def map_in_two_processes(func: Callable, items: Sequence) -> list:
    """``[func(item) for item in items]``, with the odd-indexed items mapped in a forked child.

    The child maps its items while this process maps the even-indexed ones,
    sends its results back through a pipe, and leaves through ``os._exit``,
    so it never returns into its caller's frames or flushes the stdio
    buffers it inherited. The child may run on any CPU this process may use
    except the one this process runs on when it forks. An exception in the child comes back pickled and
    is raised here as the same type; one in this process kills the child
    first. Either way the child is reaped before this returns. Fewer than
    two items, or a fork the host refuses, map every item here.

    Python 3.12+ warns about forking a process with more than one OS thread.
    Importing numpy starts a BLAS thread pool, but no caller's child calls a
    BLAS routine, and ``forks`` allows no other Python thread, so no lock
    the child needs can be held by a thread it lacks; the warning is
    silenced for that one call.
    """
    if len(items) < 2:
        return list(map(func, items))
    cpu = _this_cpu()
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process .*is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return list(map(func, items))
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = b"r" + marshal.dumps(list(map(func, items[1::2])))
            except BaseException as exc:  # sent back and raised in the parent
                import pickle

                payload = b"e" + pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    try:
        os.close(write_end)
        _keep_off(pid, cpu)
        even = list(map(func, items[::2]))
        with open(read_end, "rb", closefd=False) as pipe:
            payload = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise ChildProcessError(f"the process mapping the odd-indexed items ended with status {status}")
    if payload[:1] == b"e":
        import pickle

        raise pickle.loads(payload[1:])
    results = [None] * len(items)
    results[::2], results[1::2] = even, marshal.loads(payload[1:])
    return results


def _this_cpu() -> Optional[int]:
    """The CPU this process last ran on, or None where ``/proc`` does not say."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the 39th field; the 2nd, the command name in parentheses, may hold spaces
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _keep_off(pid: int, cpu: Optional[int]) -> None:
    """Let the process ``pid`` run on every CPU this process may use except ``cpu``.

    A forked child starts on its parent's CPU, and a scheduler that does not
    balance load between CPUs, as in some virtual machines, leaves it there,
    so that the two processes take turns on one CPU while another idles.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(pid, os.sched_getaffinity(0) - {cpu})
        except OSError:
            pass
