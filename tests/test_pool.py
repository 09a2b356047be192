import multiprocessing
import os
import signal
import time

import pytest

from eqdomain.cli import main
from eqdomain.pool import WorkerLost, _ordered_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def affinity(task):
    """A pool task: the set of CPUs the worker that runs it may use."""
    return [os.sched_getaffinity(0)]


def own_cpus():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def exits_on_3(task):
    """A pool task whose worker exits on task 3 without answering."""
    if task == 3:
        os._exit(9)
    return [task]


def answers_task_0_last(task):
    """A pool task that holds task 0 back, so that both workers have
    answered every task and are idle when its result is read."""
    if task == 0:
        time.sleep(0.5)
    return [task]


def test_dead_worker_is_named_and_every_worker_is_joined():
    with pytest.raises(WorkerLost, match=r"^a worker process died; lost task 3$"):
        list(_ordered_map(exits_on_3, range(6), 2, lambda index, task: f"task {task}"))
    assert multiprocessing.active_children() == []


def test_idle_workers_that_died_are_joined():
    results = _ordered_map(answers_task_0_last, range(4), 2, lambda index, task: f"task {task}")
    assert next(results) == [0]
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    for process in workers:
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        assert not process.is_alive()
    # the answers came before the workers died; ending them needs no pipe
    assert list(results) == [[1], [2], [3]]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(len(own_cpus()) < 2, reason="needs sched_getaffinity and at least two CPUs")
class TestWorkerPinning:
    def test_two_workers_run_on_two_cpus(self):
        cpus = own_cpus()
        results = list(_ordered_map(affinity, range(2), 2, lambda index, task: f"task {index}"))
        sets = [result[0] for result in results]
        assert all(len(s) == 1 and s <= cpus for s in sets)
        assert sets[0] != sets[1]
        assert own_cpus() == cpus

    def test_workers_wrap_around_the_cpus(self, capsys):
        cpus = own_cpus()
        jobs = len(cpus) + 1
        results = list(_ordered_map(affinity, range(jobs), jobs, lambda index, task: f"task {index}"))
        assert all(len(result[0]) == 1 for result in results)
        assert sorted(cpu for result in results for cpu in result[0]) == sorted([*cpus, min(cpus)])
        argv = ("verify-theorem", "--max-order", "4", "--mode", "raw")
        _, out1, _ = run(capsys, *argv, "--jobs", "1")
        code, outn, _ = run(capsys, *argv, "--jobs", str(jobs))
        assert code == 0
        assert outn == out1
        assert own_cpus() == cpus
