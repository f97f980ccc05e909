import os

# One BLAS thread per process, set before numpy loads: independent chunks and
# trainings then run in forked workers on every usable core, which beats
# BLAS threads on these small matrices (see twostream.parallel).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    from twostream import Rng

    return Rng(7)


def central_diff(loss_fn, arrays, h=1e-5):
    """Test-owned finite differences, independent of the package's checker."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor=1e-4):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


@pytest.fixture
def workers(monkeypatch):
    """`workers(n)` pins `ordered_map` to n processes (as far as the item
    count allows) on any machine, and returns the list of pids the parent
    forks from then on."""
    from twostream import parallel

    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def pin(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return pin
