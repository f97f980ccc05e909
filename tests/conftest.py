import os

# twostream before numpy: the package then sets its one-BLAS-thread default
# (see twostream/__init__.py) for the whole suite.
import twostream  # noqa: F401
import numpy as np
import pytest
from twostream.recurrent import _column_blocks


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


def sigmoid(x):
    """The reference sigmoid that the recurrent tests hold the cells' halved
    gates to, bit for bit."""
    # 1/(1+e^-x) == (1 + tanh(x/2)) / 2: tanh never overflows, so no sign split.
    out = np.tanh(np.multiply(x, 0.5))
    out += 1.0
    out *= 0.5
    return out


def step(cell, x_t, state):
    """One step of `cell` over rows x_t from `state` through its own `recur`: (h_t, new_state)."""
    w_x, b, wh = cell.forward_weights(*cell.split_weights())
    new_state, slots = cell.zero_state(len(x_t)), [np.empty((len(x_t), w)) for w in cell.tape_widths()]
    cell.recur(_column_blocks(x_t @ w_x.T + b, wh), wh, state, new_state, slots)
    return new_state[0], new_state


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
