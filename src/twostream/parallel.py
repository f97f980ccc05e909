"""Independent calls on every usable core.

`ordered_map(fn, items)` returns `[fn(x) for x in items]`. When the machine
has cores to spare it forks workers: with w processes the caller runs items
0::w itself and forked worker k runs items k::w, sends back its results (or
its first failure) pickled through a pipe and leaves with `os._exit`.

Fork rather than a `multiprocessing` pool: a worker starts as a copy of the
caller, so `fn` may be a closure over live models and arrays, which a pool
would have to pickle. Only the results cross the pipe, so they must pickle.
Nothing a worker does to its copy of the caller's state comes back. The
package starts no threads, and OpenBLAS shuts its own thread pool down
before a fork (a pthread_atfork handler), so no lock is copied mid-use.

The worker count never lets processes times BLAS threads exceed the usable
CPUs. OpenBLAS starts one thread per CPU unless `OPENBLAS_NUM_THREADS` (or
`GOTO_NUM_THREADS` / `OMP_NUM_THREADS`) says otherwise, so with none of them
set every call runs serially; with `OPENBLAS_NUM_THREADS=1` a 2-CPU machine
runs two processes. Forking onto CPUs that BLAS threads already use is slower
than either alone: on a 2-vCPU VM the 14 acceptance trainings took 179 s on
2 workers at 2 BLAS threads each, 130 s serially.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

# Read in this order, as OpenBLAS reads them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# True while this process runs its share of a forked map: a nested map then
# runs serially, so the processes never outnumber the ones counted for the
# outer map.
_inside_map = False


def usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot fork or
    cannot tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def blas_threads(cpus):
    """Threads each process's BLAS runs: the first positive integer among
    BLAS_THREAD_VARIABLES, else `cpus` (OpenBLAS's own default)."""
    for name in BLAS_THREAD_VARIABLES:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return cpus


def worker_count(n_items):
    """Processes `ordered_map` uses for `n_items` items. Each gets at least
    two items, since a fork costs more than one short item saves."""
    if _inside_map:
        return 1
    cpus = usable_cpus()
    return max(1, min(n_items // 2, cpus // blas_threads(cpus)))


def _run_share(fn, share):
    """(results, None), or at the first failure (results so far, (its
    position in `share`, the exception, its formatted traceback))."""
    results = []
    for x in share:
        try:
            results.append(fn(x))
        except Exception as exc:
            return results, (len(results), exc, traceback.format_exc())
    return results, None


def _worker(fn, share, write_fd, inherited_fds):
    """Run `share` in a forked worker, write the pickled outcome to
    `write_fd` and exit, whatever happens."""
    global _inside_map
    _inside_map = True
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        outcome = _run_share(fn, share)
        try:
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result or an exception that does not pickle
            failure = (0, RuntimeError(f"worker outcome does not pickle: {exc!r}"), traceback.format_exc())
            payload = pickle.dumps(([], failure), protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _read_to_eof(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def ordered_map(fn, items):
    """`[fn(x) for x in items]`, with the items spread over `worker_count`
    processes. On failure it raises the exception of the lowest-index item
    that failed, with its type and message, as the serial loop would, once
    every worker has exited and been waited for."""
    global _inside_map
    items = list(items)
    w = worker_count(len(items))
    if w < 2:
        return [fn(x) for x in items]
    sys.stdout.flush()  # else every worker would inherit the buffer and flush it again
    sys.stderr.flush()
    workers = []  # (share index, pid, read end of its pipe)
    try:
        for k in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(fn, items[k::w], write_fd, [read_fd] + [fd for _, _, fd in workers])
            os.close(write_fd)
            workers.append((k, pid, read_fd))
        _inside_map = True
        try:
            outcomes = {0: _run_share(fn, items[0::w])}
        finally:
            _inside_map = False
        for k, pid, fd in workers:
            data = _read_to_eof(fd)
            if not data:
                raise ChildProcessError(f"ordered_map worker {k} (pid {pid}) exited without a result")
            outcomes[k] = pickle.loads(data)
    finally:
        for _, pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)
    return _gather(outcomes, w, len(items))


def _gather(outcomes, w, n):
    """Interleave the shares back into item order, or raise the failure of
    the lowest-index item that failed."""
    failures = [(k + f[0] * w, k, f[1], f[2]) for k, (_, f) in outcomes.items() if f]
    if failures:
        _, k, exc, tb = min(failures, key=lambda f: f[0])
        if k and hasattr(exc, "add_note"):  # notes arrived in Python 3.11
            exc.add_note(f"raised in ordered_map worker {k}:\n{tb}")
        raise exc
    results = [None] * n
    for k, (share, _) in outcomes.items():
        results[k::w] = share
    return results
