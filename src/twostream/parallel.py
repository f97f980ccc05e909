"""Independent calls on every usable core, through forked helper processes.

Every process this module forks is a `Helper`: a copy of the caller that
answers the caller's requests with `serve(request)`, one reply per request,
in order, each pickled through a pipe, until the caller closes it.

`ordered_map(fn, items)` returns `[fn(x) for x in items]`. When the machine
has cores to spare it uses w processes: the caller opens w−1 helpers, sends
helper k its share number k, runs items 0::w itself, and helper k runs items
k::w and replies with their results (or its first failure).

The package's two-core paths: skeleton inference chunks and ladder variants
go through `ordered_map`; C3D clips, in training and in inference, go
through `conv3d.clip_helper`.

`start_helper(serve)` opens one helper that lives across calls. Work that
keeps state from one request to the next then needs one fork per run instead
of one per phase: `conv3d.clip_helper` runs each of a video model's training
batches and inference chunks with the caller running the conv stack for the
first ⌈n/2⌉ clips and the helper for the rest, and after a training forward
the helper adds its clips' kernel and bias gradients after the caller's sums
arrive, in clip order. A C3D `harness.train` call keeps one helper open
through every step, validation pass and its test pass, and a standalone
video inference pass opens one for the pass. It starts only where
`ordered_map` would fork two processes, and never inside an `ordered_map`
share, so the processes never outnumber the ones counted. A helper closes
the caller's ends of every other helper's pipes, so each helper sees the end
of its requests exactly when the caller closes it.

Fork rather than a `multiprocessing` pool: a helper starts as a copy of the
caller, so `fn` or `serve` may be a closure over live models and arrays,
which a pool would have to pickle. Only requests and replies cross the
pipes, so they must pickle. Nothing a helper does to its copy of the
caller's state comes back. The package starts no threads, and OpenBLAS shuts
its own thread pool down before a fork (a pthread_atfork handler), so no
lock is copied mid-use.

The worker count never lets processes times BLAS threads exceed the usable
CPUs. OpenBLAS starts one thread per CPU unless `OPENBLAS_NUM_THREADS` (or
`GOTO_NUM_THREADS` / `OMP_NUM_THREADS`) says otherwise. Importing the
package before numpy sets `OPENBLAS_NUM_THREADS=1` where none of them is
set, so a 2-CPU machine runs two processes; where numpy loaded first with
none of them set, every call runs serially. Forking onto CPUs that BLAS
threads already use is slower than either alone: on a 2-vCPU VM the 14
acceptance trainings took 179 s on 2 workers at 2 BLAS threads each, 130 s
serially.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import traceback

# Read in this order, as OpenBLAS reads them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# True while this process runs its share of a forked map, or is a helper: a
# nested map then runs serially, so the processes never outnumber the ones
# counted for the outer map.
_inside_map = False

# Bytes each helper pipe is grown to where the platform allows (Linux's
# F_SETPIPE_SZ). A clip helper's reply for 16 desk clips is 128 KB, twice a
# default pipe: in a grown pipe the helper writes it whole and goes on to its
# next request without waiting for the caller to read.
PIPE_BYTES = 1 << 20

# The caller's pipe ends of the helpers this process has open. A helper
# forked while others are open closes them, so that each helper sees the end
# of its requests exactly when the caller closes it.
_helper_fds = set()


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


def _spare_processes():
    """Processes that fit on the usable CPUs at each one's BLAS thread
    count; 1 inside an `ordered_map` share or a helper."""
    if _inside_map:
        return 1
    cpus = usable_cpus()
    return cpus // blas_threads(cpus)


def worker_count(n_items):
    """Processes `ordered_map` uses for `n_items` items. Each gets at least
    two items, since a fork costs more than one short item saves."""
    return max(1, min(n_items // 2, _spare_processes()))


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


def ordered_map(fn, items):
    """`[fn(x) for x in items]`, with the items spread over `worker_count`
    processes. On failure it raises the exception of the lowest-index item
    that failed, with its type and message, as the serial loop would, once
    every helper has exited and been waited for."""
    global _inside_map
    items = list(items)
    w = worker_count(len(items))
    if w < 2:
        return [fn(x) for x in items]
    with contextlib.ExitStack() as stack:
        helpers = []
        for k in range(1, w):
            helpers.append(stack.enter_context(Helper(lambda share: _run_share(fn, items[share::w]))))
            helpers[-1].send(k)
        _inside_map = True
        try:
            outcomes = {0: _run_share(fn, items[0::w])}
        finally:
            _inside_map = False
        for k, helper in enumerate(helpers, start=1):
            try:
                outcomes[k] = helper.receive()
            except ChildProcessError:
                raise ChildProcessError(f"ordered_map worker {k} (pid {helper.pid}) exited without a result") from None
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


def start_helper(serve):
    """A `Helper` that answers requests with `serve`, or None where
    `ordered_map` would not fork two processes: too few usable CPUs for one
    more process at the BLAS thread count, or inside an `ordered_map` share."""
    return Helper(serve) if _spare_processes() >= 2 else None


class Helper:
    """One forked process that answers the caller's requests with
    `serve(request)`: one reply per request, in order, each pickled through a
    pipe. `send` and `receive` may be apart, so that the caller works while
    the helper does. The helper starts as a copy of the caller, so `serve`
    may close over live state; only requests and replies cross the pipes.

    A failure inside `serve` comes back from `receive` with its type and
    message, as `ordered_map` raises it, and the helper goes on serving. A
    helper that died raises ChildProcessError. `close`, or leaving a `with`
    block however it is left, ends the helper and waits for it."""

    def __init__(self, serve):
        sys.stdout.flush()  # else the helper would inherit the buffers and flush them again
        sys.stderr.flush()
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        for fd in (request_w, reply_w):
            _grow_pipe(fd)
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            _serve_requests(serve, request_r, reply_w, [request_w, reply_r])
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self._fds = {request_w, reply_r}
        _helper_fds.update(self._fds)
        self._requests = os.fdopen(request_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    def send(self, request):
        try:
            self._requests.write(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL))
            self._requests.flush()
        except BrokenPipeError:
            raise ChildProcessError(f"helper (pid {self.pid}) exited") from None

    def receive(self):
        """The reply to the oldest request not yet received."""
        try:
            value, failure = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"helper (pid {self.pid}) exited without a reply") from None
        if failure:
            exc, tb = failure
            if hasattr(exc, "add_note"):  # notes arrived in Python 3.11
                exc.add_note(f"raised in helper (pid {self.pid}):\n{tb}")
            raise exc
        return value

    def call(self, request):
        self.send(request)
        return self.receive()

    def close(self):
        """Close both pipes, which ends the helper (one blocked writing a
        reply as well as one waiting for a request), and wait for it."""
        if self.pid is None:
            return
        _helper_fds.difference_update(self._fds)
        for fh in (self._replies, self._requests):
            try:
                fh.close()
            except OSError:  # a request left unflushed by a helper that died
                pass
        os.waitpid(self.pid, 0)
        self.pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _grow_pipe(fd):
    """Grow the pipe behind fd to PIPE_BYTES; where the platform has no
    F_SETPIPE_SZ, or refuses the size, it keeps its own."""
    import fcntl  # POSIX only, as os.fork is

    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)


def _serve_requests(serve, read_fd, write_fd, inherited_fds):
    """The helper's loop: answer each request until the caller closes the
    pipe, then exit, whatever happens."""
    global _inside_map
    _inside_map = True
    status = 1
    try:
        for fd in [*inherited_fds, *_helper_fds]:
            os.close(fd)
        _helper_fds.clear()
        with os.fdopen(read_fd, "rb") as requests, os.fdopen(write_fd, "wb") as replies:
            while True:
                try:
                    request = pickle.load(requests)
                except EOFError:
                    break
                try:
                    reply = (serve(request), None)
                except Exception as exc:
                    reply = (None, (exc, traceback.format_exc()))
                try:
                    payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # a reply or an exception that does not pickle
                    failure = (RuntimeError(f"helper reply does not pickle: {exc!r}"), traceback.format_exc())
                    payload = pickle.dumps((None, failure), protocol=pickle.HIGHEST_PROTOCOL)
                replies.write(payload)
                replies.flush()
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)
