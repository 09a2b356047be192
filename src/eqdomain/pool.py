"""The worker pool that ``check`` and ``verify-theorem`` run their shards on.

:func:`_ordered_map` runs tasks in forked worker processes and yields their
results in task order.  The CLI imports this module only when it runs
shards on more than one job, and ``multiprocessing`` is imported only when
a worker is forked.
"""

import os
from itertools import chain, cycle, islice

SHARDS_AHEAD_PER_JOB = 4


class WorkerLost(ChildProcessError):
    """A worker process died before it returned a task's result (a
    ChildProcessError, which the CLI maps without importing this module)."""


def _serve(fn, conn, cpu):
    """Worker process: answer each task that comes on ``conn``, until ``None``.

    The answer is ``list(fn(task))``, so ``fn`` may return a generator.  The
    worker first pins itself to ``cpu``, unless that is None.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU went away since the parent read its set
            pass
    while (task := conn.recv()) is not None:
        conn.send(list(fn(task)))


def _start_worker(fn, cpu):
    """A worker process serving ``fn``, pinned to ``cpu`` unless that is
    None: the pipe to it, and the process."""
    import multiprocessing

    conn, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=_serve, args=(fn, child, cpu), daemon=True)
    process.start()
    child.close()  # the worker holds the only other end: its death is EOF here
    return conn, process


def _ordered_map(fn, tasks, jobs: int, describe):
    """``fn(task)`` for each task, in task order, yielded as it arrives.

    ``tasks`` may be any iterable, read as the results are wanted.  Up to
    ``jobs`` worker processes run the tasks, never more than there are
    tasks, and each result comes back as ``list(fn(task))``.  A worker
    takes the next task as soon as it is free, and at most
    ``SHARDS_AHEAD_PER_JOB * jobs`` tasks are out at once: a reader slower
    than the workers holds them back instead of letting results pile up.
    With one worker the tasks run in this process and ``fn(task)`` is
    yielded as it is, so a generator is read only as its reader asks.  If
    a worker dies, the task it held, named by ``describe(index, task)``, is
    reported by raising :class:`WorkerLost`.  Every worker is joined before
    the generator ends, is closed or raises.

    Worker i is pinned to the i-th CPU of this process's set, wrapping
    around, and this process's own set is left as it is.  Short-lived
    forked workers otherwise tend to run on their parent's CPU while
    another stays idle.  Nothing is pinned where this process may use only
    one CPU or the platform cannot pin.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, jobs))
    if len(head) <= 1:
        yield from map(fn, chain(head, tasks))
        return
    from multiprocessing.connection import wait

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        cpus = [None]
    workers = dict(_start_worker(fn, cpu) for _, cpu in zip(head, cycle(cpus)))  # pipe -> process
    numbered = enumerate(chain(head, tasks))
    idle, busy, done = list(workers), {}, {}  # busy: pipe -> (index, task)
    ahead, yielded = SHARDS_AHEAD_PER_JOB * jobs, 0
    try:
        while True:
            while idle and len(busy) + len(done) < ahead and (item := next(numbered, None)):
                conn = idle.pop()
                busy[conn] = item
                conn.send(item[1])
            if yielded in done:
                yield done.pop(yielded)
                yielded += 1
            elif not busy:
                return
            else:
                for conn in wait(list(busy)):
                    done[busy[conn][0]] = conn.recv()
                    del busy[conn]
                    idle.append(conn)
    except (EOFError, OSError):  # the pipe to a dead worker
        index, task = busy[conn]
        raise WorkerLost(f"a worker process died; lost {describe(index, task)}") from None
    finally:
        # a busy worker, or an idle one whose pipe is broken, is stopped;
        # every worker is joined, however the reading ended
        for conn, process in workers.items():
            if conn in busy or not _stop(conn):
                process.terminate()
        for process in workers.values():
            process.join()


def _stop(conn) -> bool:
    """Send an idle worker the ``None`` that ends it; False if its pipe is
    broken, as it is once the worker has died."""
    try:
        conn.send(None)
    except OSError:
        return False
    return True
