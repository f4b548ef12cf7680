"""Tests for the order-preserving fan-out helpers."""

import contextlib
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import tukeyseg
from tukeyseg.parallel import parallel_imap, parallel_map


def _counts(jobs):
    """Fewer items than jobs, as many, and more."""
    return sorted({0, 1, max(jobs - 1, 0), jobs, jobs + 1, 3 * jobs + 2})


def _later_first(n):
    """A function that finishes later items first, to shuffle completion order."""

    def fn(i):
        time.sleep(0.001 * ((n - i) % 3))
        return i * i

    return fn


class TestOrder:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_yields_in_input_order(self, jobs):
        for n in _counts(jobs):
            expected = [i * i for i in range(n)]
            assert list(parallel_imap(_later_first(n), range(n), jobs)) == expected
            assert parallel_map(_later_first(n), range(n), jobs) == expected

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_takes_any_iterable_lazily(self, jobs):
        pulled = []

        def items():
            for i in range(20):
                pulled.append(i)
                yield i

        stream = parallel_imap(lambda i: -i, items(), jobs)
        assert pulled == []
        with contextlib.closing(stream):
            assert next(stream) == 0
            assert len(pulled) <= jobs + 1
        assert list(parallel_imap(lambda i: -i, items(), jobs)) == [-i for i in range(20)]


class TestThreads:
    @pytest.mark.parametrize("jobs, n", [(1, 5), (3, 1), (3, 0), (0, 4)])
    def test_one_job_or_one_item_runs_in_the_callers_thread(self, jobs, n):
        main = threading.current_thread()
        seen = parallel_map(lambda i: threading.current_thread(), range(n), jobs)
        assert all(thread is main for thread in seen)

    def test_jobs_spread_over_threads(self):
        barrier = threading.Barrier(2, timeout=10)

        def meet(i):
            barrier.wait()  # returns only if two items run at once
            return threading.current_thread()

        seen = parallel_map(meet, range(4), 2)
        assert threading.current_thread() not in seen

    def test_one_job_loads_no_pool(self):
        script = (
            "import sys\n"
            "from tukeyseg.parallel import parallel_imap, parallel_map\n"
            "assert list(parallel_imap(abs, [-1, -2, -3])) == [1, 2, 3]\n"
            "assert parallel_map(abs, [-4], 3) == [4]\n"
            "assert parallel_map(abs, [], 3) == []\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        src = pathlib.Path(tukeyseg.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestBoundedLookahead:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_at_most_jobs_plus_one_started_and_not_consumed(self, jobs):
        # An item counts from when the map takes it from the input, before it
        # can start, until the caller is done with it and asks for the next.
        lock = threading.Lock()
        taken = started = peak_taken = peak_started = 0
        n = 8 * jobs + 3

        def items():
            nonlocal taken, peak_taken
            for i in range(n):
                with lock:
                    taken += 1
                    peak_taken = max(peak_taken, taken)
                yield i

        def fn(i):
            nonlocal started, peak_started
            with lock:
                started += 1
                peak_started = max(peak_started, started)
            return i

        def release():
            nonlocal taken, started
            with lock:
                taken -= 1
                started -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
        try:
            got = []
            for i in parallel_imap(fn, items(), jobs):
                got.append(i)
                time.sleep(0.002)  # a slow consumer lets the workers run ahead
                release()
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(n))
        assert taken == started == 0
        assert peak_started <= peak_taken <= jobs + 1
        if jobs > 1:
            assert peak_taken == jobs + 1


class TestErrors:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 1, 4, 9])
    def test_worker_exception_at_its_position(self, jobs, bad):
        def fn(i):
            if i == bad:
                raise ValueError(f"item {i}")
            time.sleep(0.001 * (i % 2))
            return i

        got = []
        with pytest.raises(ValueError, match=f"^item {bad}$"):
            for value in parallel_imap(fn, range(10), jobs):
                got.append(value)
        assert got == list(range(bad))
        with pytest.raises(ValueError, match=f"^item {bad}$"):
            parallel_map(fn, range(10), jobs)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_consumer_stopping_early_leaves_no_thread(self, jobs):
        running = threading.active_count()
        started = []
        stream = parallel_imap(lambda i: started.append(i) or i, range(100), jobs)
        with contextlib.closing(stream):
            for i in stream:
                if i == 3:
                    break
        assert threading.active_count() == running
        assert len(started) <= 4 + jobs + 1

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_consumer_raising_leaves_no_thread(self, jobs):
        running = threading.active_count()
        stream = parallel_imap(lambda i: i, range(100), jobs)
        with pytest.raises(RuntimeError, match="consumer"):
            with contextlib.closing(stream):
                for i in stream:
                    if i == 5:
                        raise RuntimeError("consumer")
        assert threading.active_count() == running

    def test_dropped_stream_shuts_its_pool(self):
        running = threading.active_count()
        stream = parallel_imap(lambda i: i, range(100), 2)
        assert next(stream) == 0
        assert threading.active_count() > running
        del stream
        assert threading.active_count() == running
