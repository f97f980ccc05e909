import fcntl
import os
import stat
import struct
import termios
import time

import numpy as np
import pytest

from twostream import parallel
from twostream.errors import DivergenceError
from twostream.parallel import ordered_map, worker_count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bytes_waiting(fh):
    """Bytes written to the pipe behind fh and not yet read."""
    return struct.unpack("i", fcntl.ioctl(fh.fileno(), termios.FIONREAD, b"\0" * 4))[0]


def failing_at(bad, exc_type=ValueError):
    def fn(x):
        if x in bad:
            raise exc_type(f"item {x} failed")
        return x * x

    return fn


class TestOrderedMap:
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_results_come_back_in_item_order(self, workers, n_workers):
        forks = workers(n_workers)
        out = ordered_map(lambda x: (x * x, os.getpid()), range(11))
        assert [v for v, _ in out] == [x * x for x in range(11)]
        assert len(forks) == n_workers - 1
        pids = [pid for _, pid in out]
        assert pids[0::n_workers] == [os.getpid()] * len(pids[0::n_workers])
        for k in range(1, n_workers):
            assert set(pids[k::n_workers]) == {forks[k - 1]}
        assert_no_child_left()

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({3, 6}, 3),  # the lowest failure ran in a worker
            ({4, 7}, 4),  # the lowest failure ran in the parent
            ({5}, 5),
            ({0, 1}, 0),
        ],
    )
    @pytest.mark.parametrize("exc_type", [ValueError, DivergenceError])
    def test_lowest_index_failure_arrives_with_type_and_message(self, workers, bad, first, exc_type):
        workers(2)
        with pytest.raises(exc_type) as info:
            ordered_map(failing_at(bad, exc_type), range(10))
        assert type(info.value) is exc_type
        assert str(info.value) == f"item {first} failed"
        assert_no_child_left()

    def test_serial_run_raises_the_same_failure(self, workers):
        workers(1)
        with pytest.raises(ValueError, match="^item 3 failed$"):
            ordered_map(failing_at({3, 6}), range(10))

    def test_unpicklable_result_fails_loudly(self, workers):
        workers(2)
        with pytest.raises(RuntimeError, match="does not pickle"):
            ordered_map(lambda x: (lambda: x), range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_worker_that_dies_is_reported_and_reaped(self, workers, n_workers):
        workers(n_workers)
        last = n_workers - 1  # the dying item runs in the last worker's share
        with pytest.raises(ChildProcessError, match=f"worker {last} .* exited without a result"):
            ordered_map(lambda x: os._exit(3) if x == last else x, range(2 * n_workers))
        assert_no_child_left()

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_results_larger_than_a_pipe_buffer_arrive_whole(self, workers, n_workers):
        def fn(x):
            return np.random.default_rng(x).standard_normal((1 << 17) + x)  # over 1 MB each

        forks = workers(n_workers)
        out = ordered_map(fn, range(2 * n_workers))
        assert len(forks) == n_workers - 1
        expected = [fn(x) for x in range(2 * n_workers)]
        assert all(np.array_equal(a, b) for a, b in zip(out, expected, strict=True))
        assert_no_child_left()

    def test_nested_call_runs_serially_in_parent_and_worker(self, workers):
        forks = workers(2)
        out = ordered_map(lambda x: (os.getpid(), ordered_map(lambda y: os.getpid(), range(6))), range(4))
        assert len(forks) == 1
        for outer, inner in out:
            assert inner == [outer] * 6
        assert_no_child_left()
        assert len(ordered_map(lambda x: os.getpid(), range(4))) == 4
        assert len(forks) == 2  # forks again once the outer map returned

    def test_worker_state_stays_in_the_worker(self, workers):
        workers(2)
        seen = []
        assert ordered_map(lambda x: seen.append(x) or x, range(4)) == [0, 1, 2, 3]
        assert seen == [0, 2]

    def test_empty_and_short_inputs_run_serially(self, workers):
        forks = workers(2)
        assert ordered_map(lambda x: x + 1, []) == []
        assert ordered_map(lambda x: x + 1, range(3)) == [1, 2, 3]
        assert forks == []


class TestWorkerCount:
    def test_fewer_than_four_items_never_fork(self, workers):
        workers(8)
        assert [worker_count(n) for n in range(4)] == [1, 1, 1, 1]
        assert worker_count(4) == 2
        assert worker_count(100) == 8

    def test_blas_threads_unset_means_serial(self, monkeypatch):
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert worker_count(100) == 1

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_no_fork_or_affinity_means_serial(self, monkeypatch, missing):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, missing)
        assert parallel.usable_cpus() == 1
        assert worker_count(100) == 1

    def test_first_positive_blas_variable_counts(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
        monkeypatch.setenv("GOTO_NUM_THREADS", "many")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert parallel.blas_threads(8) == 3
        monkeypatch.setenv("GOTO_NUM_THREADS", "2")
        assert parallel.blas_threads(8) == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 8])
    def test_processes_times_blas_threads_never_exceed_cpus(self, monkeypatch, cpus, threads):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))
        for n in (4, 10, 100):
            w = worker_count(n)
            assert w == 1 or w * threads <= cpus


def counter():
    """A serve function with state that lives across requests."""
    total = []

    def serve(request):
        if request == "die":
            os._exit(3)
        if request == "fail":
            raise DivergenceError("request failed")
        total.append(request)
        return sum(total), os.getpid()

    return serve


class TestHelper:
    def test_replies_come_in_request_order_with_state_kept(self, workers):
        forks = workers(2)
        with parallel.start_helper(counter()) as helper:
            helper.send(1)
            helper.send(2)
            assert helper.receive() == (1, forks[0])
            assert helper.receive() == (3, forks[0])
            assert helper.call(4) == (7, forks[0])
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipes cannot grow on this platform")
    def test_a_reply_twice_a_default_pipe_is_written_whole_before_it_is_read(self, workers):
        workers(2)
        with parallel.start_helper(np.ones) as helper:
            helper.send(16 * 1024)  # a 128 KB array; a default pipe holds 64 KB
            deadline = time.monotonic() + 10
            while (waiting := _bytes_waiting(helper._replies)) <= 128 * 1024 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert waiting > 128 * 1024
            assert np.array_equal(helper.receive(), np.ones(16 * 1024))
        assert_no_child_left()

    def test_failure_arrives_with_type_and_message_and_the_helper_goes_on(self, workers):
        workers(2)
        with parallel.start_helper(counter()) as helper:
            with pytest.raises(DivergenceError) as info:
                helper.call("fail")
            assert str(info.value) == "request failed"
            assert helper.call(5)[0] == 5
        assert_no_child_left()

    def test_unpicklable_reply_fails_loudly(self, workers):
        workers(2)
        with parallel.start_helper(lambda x: (lambda: x)) as helper:
            with pytest.raises(RuntimeError, match="does not pickle"):
                helper.call(1)
        assert_no_child_left()

    def test_helper_that_dies_is_reported_and_reaped(self, workers):
        workers(2)
        with pytest.raises(ChildProcessError, match=r"helper \(pid \d+\) exited"):
            with parallel.start_helper(counter()) as helper:
                helper.call("die")
        assert_no_child_left()

    def test_exception_in_the_caller_closes_and_reaps_the_helper(self, workers):
        workers(2)
        with pytest.raises(KeyError):
            with parallel.start_helper(counter()) as helper:
                helper.send(1)  # its reply is never read
                raise KeyError("caller failed")
        assert_no_child_left()
        assert parallel._helper_fds == set()

    def test_no_helper_without_a_spare_core_or_inside_a_map(self, workers, monkeypatch):
        forks = workers(1)
        assert parallel.start_helper(counter()) is None
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        assert parallel.start_helper(counter()) is None  # 2 BLAS threads fill both CPUs
        workers(2)
        assert ordered_map(lambda x: parallel.start_helper(counter()) is None, range(4)) == [True] * 4
        assert len(forks) == 1  # the map's worker; no helper in either share
        assert_no_child_left()

    def test_map_worker_closes_the_helpers_pipe_ends(self, workers):
        workers(2)
        with parallel.start_helper(counter()) as helper:
            fds = sorted(parallel._helper_fds)
            assert len(fds) == 2

            def open_fds(_):
                still_open = []
                for fd in fds:
                    try:
                        os.fstat(fd)
                        still_open.append(fd)
                    except OSError:
                        pass
                return os.getpid(), still_open

            (pid_a, open_a), (pid_b, open_b) = ordered_map(open_fds, range(4))[:2]
            assert pid_a == os.getpid() and open_a == fds
            assert pid_b != os.getpid() and open_b == []
            assert helper.call(2)[0] == 2  # the helper still serves the caller
        assert_no_child_left()

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_no_worker_holds_another_workers_pipe_ends(self, workers, n_workers):
        """Pipes are told apart by inode, since fd numbers are reused: a
        worker's own ends may carry the numbers of a later worker's ends in
        the parent."""

        def pipes_open(_):
            inodes = set()
            for fd in range(1024):
                try:
                    st = os.fstat(fd)
                except OSError:
                    continue
                if stat.S_ISFIFO(st.st_mode):
                    inodes.add(st.st_ino)
            return os.getpid(), inodes, {os.fstat(fd).st_ino for fd in parallel._helper_fds}

        workers(n_workers)
        with parallel.start_helper(counter()) as helper:
            clip_pipes = {os.fstat(fd).st_ino for fd in parallel._helper_fds}
            out = ordered_map(pipes_open, range(2 * n_workers))
            _, parent_pipes, helper_pipes = out[0]  # item 0 ran in the parent, with every pipe open
            worker_pipes = helper_pipes - clip_pipes
            assert len(worker_pipes) == 2 * (n_workers - 1) and worker_pipes <= parent_pipes
            seen = []
            for pid, pipes, _ in out[1:n_workers]:
                assert pid != os.getpid()
                assert not pipes & clip_pipes
                seen.append(pipes & worker_pipes)
                assert len(seen[-1]) == 2  # its own request and reply pipes
            assert set().union(*seen) == worker_pipes  # so no two workers share a pipe
            assert helper.call(2)[0] == 2
        assert_no_child_left()
