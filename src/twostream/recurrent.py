"""Recurrent cells (vanilla, LSTM, GRU), sequence unrolling with length
masking, bidirectional layers, layer stacking, and exact backpropagation
through time.

A cell is a one-direction layer and `BidirectionalLayer` pairs two cells of
one kind; `unroll`/`unroll_backward` run either, and `stack` chains them.

Conventions shared by every cell:

* Fused weight matrices act on the concatenation [x_t ; h_prev], input
  columns first. LSTM row blocks are ordered (input, forget, output,
  candidate); GRU gate rows are ordered (update z, reset r). The ordering is
  part of the checkpoint contract.
* Hidden and cell states start at zero.
* Time steps at or past a sample's true length never update state: the state
  is frozen, the emitted output row is zero, and no gradient flows to the
  padded inputs. Appending more padding therefore changes nothing.

Each cell kind writes its step math once, in the `_Cell` protocol: `recur`
runs a step forward, `local_grads` and `recur_backward` run it backward.
`unroll` runs `recur` in a time-major loop (Appleyard et al.,
arXiv:1604.01946): the input half of every fused matmul, x_t W_x^T + b, is
taken out of the loop as one GEMM over all valid (t, row) pairs, so each
step only adds h_prev W_h^T.
`unroll_backward` keeps each step's pre-activation gradients and forms dW, db
and the input gradient with one GEMM each over the same valid pairs after the
loop; the step-local derivative factors (gate slopes and the like) are
computed for all steps at once before it, so the backward loop holds only
what the recurrence needs.

At desk shapes a step costs numpy calls, not arithmetic, and Appleyard et al.
fuse a step's pointwise ops into one kernel; the numpy counterpart here is
fewer calls, all writing in place into buffers allocated once per unroll.
`recur` writes the next state into a step-ordered state buffer and its saved
arrays into a step-ordered tape, so BPTT reads both as they are, with no
per-step list and no stacking. The sigmoid columns' weights and biases are
halved once per unroll (`_Cell.forward_weights`), so a sigmoid gate is tanh
of the pre-activation as it comes plus one in-place affine; halving is exact,
so every output bit is what (1 + tanh(p / 2)) / 2 of the unhalved
pre-activation p gives.

The hoisted GEMMs run over the valid pairs only, never over all T*n padded
rows: OpenBLAS can round a row differently when a GEMM's row count changes,
so projecting padded rows too would let extra padding change the bits of
real outputs. Restricted to valid pairs, extra padding adds no rows, and
outputs and gradients stay bit-identical however far a batch is padded.

Every direction steps forward through its own reading order: a forward
cell's step s reads a row's true step s, a backward cell's reads true step
L-1-s, where L is the row's true length. So in every direction a row's valid
steps are s < L, and one mask freezes every direction past them. A
bidirectional layer runs both of its cells in that one loop, batching the
two directions' independent per-step GEMMs as Appleyard et al. do: states
carry a direction axis ([k, n, d], k = 1 or 2) and the recurrent weight
halves are stacked [k, d, G], so each step makes one round of small numpy
calls for both directions instead of two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError, ContractError, DataError, DimensionError
from .tensor import Rng, default_dtype


def glorot_uniform(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_rnn_cell(input_dim, hidden_dim, rng: Rng) -> RnnCell:
    W = glorot_uniform(rng, hidden_dim, input_dim + hidden_dim)
    b = np.zeros(hidden_dim, dtype=default_dtype())
    return RnnCell(W=W, b=b)


def init_lstm_cell(input_dim, hidden_dim, rng: Rng) -> LstmCell:
    W = glorot_uniform(rng, 4 * hidden_dim, input_dim + hidden_dim)
    b = np.zeros(4 * hidden_dim, dtype=default_dtype())
    b[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias starts open
    return LstmCell(W=W, b=b)


def init_gru_cell(input_dim, hidden_dim, rng: Rng) -> GruCell:
    W_gates = glorot_uniform(rng, 2 * hidden_dim, input_dim + hidden_dim)
    W_cand = glorot_uniform(rng, hidden_dim, input_dim + hidden_dim)
    zb = np.zeros(2 * hidden_dim, dtype=default_dtype())
    zb[:hidden_dim] = 1.0  # update gate starts open: same memory head start as
    # the LSTM forget bias, without it a fresh cell halves its state every step
    cb = np.zeros(hidden_dim, dtype=default_dtype())
    return GruCell(W_gates=W_gates, W_cand=W_cand, b_gates=zb, b_cand=cb)


def param_count(model) -> int:
    """Total number of scalar parameters in anything with `param_items()`:
    a cell, a BidirectionalLayer, a C3dModel or either classifier."""
    return sum(a.size for _, a in model.param_items())


class _Cell:
    """The step protocol that `unroll` drives, shared by the three cell kinds.

    Each cell kind is a dataclass that holds its own arrays and reads
    `hidden_dim` off them. A cell's weights are one or more fused blocks
    (W, b). Each W acts on [x_t ; hin_t], input columns first, where hin_t is
    the block's recurrent input: h_prev, or r * h_prev for the GRU candidate.
    `split_weights` is the one place that splits the blocks at the input
    columns.

    * `recur(xp_t, wh, state, new_state, slots)` runs one step in place. It
      reads the projected input rows xp_t = x_t W_x^T + b (one array per
      block) and the state arrays (h, or h and c for the LSTM), and writes the
      next state into `new_state` and the step's saved arrays, one per entry
      of `tape_widths`, into `slots`. Its weights are the ones
      `forward_weights` returns: the first `sigmoid_width` fused columns are
      halved there, so a sigmoid is tanh of the pre-activation as it comes,
      plus one in-place affine ((tanh(p/2) + 1) / 2 without the p/2).
    * `local_grads(*states, *tape)` takes the step-ordered state buffers
      [t_run+1, ...] (step k reads row k and writes row k+1) and the tape
      arrays [t_run, ...], and returns every block's recurrent inputs and the
      step-local derivative factors, all computed in one pass over them.
    * `recur_backward(factors, t, dstate, wh_t, dpre)` writes step t's
      pre-activation gradients into `dpre` (blocks side by side) and returns
      the gradient of the previous state; wh_t are the transposes of the
      unhalved wh.
    * `tape_widths()`: the width of each array `recur` saves per step, in
      `slots` order. `sigmoid_width`: the number of leading fused columns
      that pass through a sigmoid.

    The three methods index only the last axis and broadcast over the ones
    before it, so the same code runs one cell's [n, .] states and [d, G]
    weights and `unroll`'s direction-stacked [k, n, .] states and [k, d, G]
    weights.
    """

    n_state = 1

    @property
    def input_dim(self):
        W, _ = self.blocks()[0]
        return W.shape[1] - self.hidden_dim

    def zero_state(self, *lead):
        shape = (*lead, self.hidden_dim)
        return tuple(np.zeros(shape, dtype=default_dtype()) for _ in range(self.n_state))

    @property
    def out_dim(self):
        return self.hidden_dim

    def param_arrays(self):
        """Every block's W, then every block's b: the order of `param_names`."""
        blocks = self.blocks()
        return [W for W, _ in blocks] + [b for _, b in blocks]

    def param_items(self):
        return list(zip(self.param_names, self.param_arrays()))

    def split_weights(self):
        """The fused blocks split at the input columns: (W_x, b, wh), with the
        blocks' input halves W_x [G, i] and biases b [G] side by side and
        wh = [contiguous W_h^T per block], the form BPTT takes."""
        i, blocks = self.input_dim, self.blocks()
        w_x = np.concatenate([W[:, :i] for W, _ in blocks])
        b = np.concatenate([b for _, b in blocks])
        return w_x, b, [np.ascontiguousarray(W[:, i:].T) for W, _ in blocks]

    def forward_weights(self, w_x, b, wh):
        """`split_weights`' (W_x, b, wh), one cell's or stacked on a leading
        direction axis, for `recur`, with the first `sigmoid_width` fused
        columns halved. Halving is exact (outside the subnormal range), so the
        projections come out as exactly half the pre-activations and the
        sigmoid's own halving is saved. A cell with no sigmoid columns gets
        the given arrays back, not scaled copies."""
        if not self.sigmoid_width:
            return w_x, b, wh
        scale = np.ones(b.shape[-1], dtype=b.dtype)
        scale[: self.sigmoid_width] = 0.5
        halved = [w * s for w, s in zip(wh, _column_blocks(scale, wh))]
        return w_x * scale[:, None], b * scale, halved


def _column_blocks(a, wh):
    """Views of a's fused columns (last axis), one per block of wh."""
    blocks, lo = [], 0
    for w in wh:
        blocks.append(a[..., lo : lo + w.shape[-1]])
        lo += w.shape[-1]
    return blocks


# 0-d arrays: numpy converts a Python float operand again on every call.
_ONE, _HALF = np.array(1.0), np.array(0.5)


def _sigmoid_of_halved(pre, out):
    """sigmoid(2 * pre) into `out`, formed as (1 + tanh(pre)) / 2: tanh never
    overflows, so no sign split."""
    np.tanh(pre, out)
    out += _ONE
    out *= _HALF


@dataclass(eq=False)
class RnnCell(_Cell):
    """Vanilla cell: h_t = tanh(W [x_t ; h_prev] + b). State is the 1-tuple (h,)."""

    W: np.ndarray  # [d, i+d]
    b: np.ndarray  # [d]

    param_names = ("W", "b")
    sigmoid_width = 0

    @property
    def hidden_dim(self):
        return self.W.shape[0]

    def blocks(self):
        return [(self.W, self.b)]

    def tape_widths(self):
        return ()  # h_prev and h_t are the state buffer's rows

    def recur(self, xp_t, wh, state, new_state, slots):
        pre = state[0] @ wh[0]
        pre += xp_t[0]
        np.tanh(pre, new_state[0])

    def local_grads(self, h):
        h_prev, h = h[:-1], h[1:]
        return (h_prev,), (1.0 - h * h,)

    def recur_backward(self, factors, t, dstate, wh_t, dpre):
        np.multiply(dstate[0], factors[0][t], out=dpre)
        return (dpre @ wh_t[0],)


@dataclass(eq=False)
class LstmCell(_Cell):
    """LSTM cell; W rows are the fused (i, f, o, candidate) blocks. State is (h, c)."""

    W: np.ndarray  # [4d, i+d]
    b: np.ndarray  # [4d]

    param_names = ("W", "b")
    n_state = 2

    @property
    def hidden_dim(self):
        return self.W.shape[0] // 4

    @property
    def sigmoid_width(self):
        return 3 * self.hidden_dim  # (input, forget, output)

    def blocks(self):
        return [(self.W, self.b)]

    def tape_widths(self):
        d = self.hidden_dim
        return (3 * d, d, d)  # gates, cand, tanh(c_t)

    def recur(self, xp_t, wh, state, new_state, slots):
        h_prev, c_prev = state
        h_t, c_t = new_state
        gates, cand, tc = slots
        d = self.hidden_dim
        pre = h_prev @ wh[0]
        pre += xp_t[0]
        _sigmoid_of_halved(pre[..., : 3 * d], gates)
        gi, gf, go = gates[..., :d], gates[..., d : 2 * d], gates[..., 2 * d :]
        np.tanh(pre[..., 3 * d :], cand)
        np.multiply(gf, c_prev, c_t)
        c_t += gi * cand
        np.tanh(c_t, tc)
        np.multiply(go, tc, h_t)

    def local_grads(self, h, c, gates, cand, tc):
        h_prev, c_prev = h[:-1], c[:-1]
        d = self.hidden_dim
        gi, gf, go = gates[..., :d], gates[..., d : 2 * d], gates[..., 2 * d :]
        dgates = gates * (1.0 - gates)
        # d pre = [dc_t, dc_t, dh, dc_t] * dpre_scale
        dpre_scale = np.concatenate(
            [
                cand * dgates[..., :d],
                c_prev * dgates[..., d : 2 * d],
                tc * dgates[..., 2 * d :],
                gi * (1.0 - cand * cand),
            ],
            axis=-1,
        )
        return (h_prev,), (go * (1.0 - tc * tc), gf, dpre_scale)

    def recur_backward(self, factors, t, dstate, wh_t, dpre):
        dc_scale, gf, dpre_scale = factors
        dh, dc = dstate
        d = self.hidden_dim
        dct = dc + dh * dc_scale[t]
        s = dpre_scale[t]
        np.multiply(dct, s[..., :d], out=dpre[..., :d])
        np.multiply(dct, s[..., d : 2 * d], out=dpre[..., d : 2 * d])
        np.multiply(dh, s[..., 2 * d : 3 * d], out=dpre[..., 2 * d : 3 * d])
        np.multiply(dct, s[..., 3 * d :], out=dpre[..., 3 * d :])
        return dpre @ wh_t[0], dct * gf[t]


@dataclass(eq=False)
class GruCell(_Cell):
    """GRU cell; W_gates rows are the fused (z, r) blocks. State is the
    1-tuple (h,); the blocks are (W_gates, b_gates) on [x ; h_prev] and
    (W_cand, b_cand) on [x ; r*h_prev], so the reset gate scales h_prev inside
    the candidate's affine map. The update gate blends
    h_t = z * h_prev + (1 - z) * candidate."""

    W_gates: np.ndarray  # [2d, i+d]
    W_cand: np.ndarray  # [d, i+d]
    b_gates: np.ndarray  # [2d]
    b_cand: np.ndarray  # [d]

    param_names = ("W_gates", "W_cand", "b_gates", "b_cand")

    @property
    def hidden_dim(self):
        return self.W_cand.shape[0]

    @property
    def sigmoid_width(self):
        return 2 * self.hidden_dim  # (z, r)

    def blocks(self):
        return [(self.W_gates, self.b_gates), (self.W_cand, self.b_cand)]

    def tape_widths(self):
        d = self.hidden_dim
        return (d, 2 * d, d)  # r * h_prev, gates, cand

    def recur(self, xp_t, wh, state, new_state, slots):
        h_prev, h_t = state[0], new_state[0]
        hr, gates, cand = slots
        d = self.hidden_dim
        pre = h_prev @ wh[0]
        pre += xp_t[0]
        _sigmoid_of_halved(pre, gates)
        z, r = gates[..., :d], gates[..., d:]
        np.multiply(r, h_prev, hr)
        pre = hr @ wh[1]
        pre += xp_t[1]
        np.tanh(pre, cand)
        np.subtract(_ONE, z, pre)  # spent: reused for (1 - z) * cand
        pre *= cand
        np.multiply(z, h_prev, h_t)
        h_t += pre

    def local_grads(self, h, hr, gates, cand):
        h_prev = h[:-1]
        d = self.hidden_dim
        z, r = gates[..., :d], gates[..., d:]
        dgates = gates * (1.0 - gates)
        dcand_scale = (1.0 - z) * (1.0 - cand * cand)
        dz_scale = (h_prev - cand) * dgates[..., :d]
        dr_scale = h_prev * dgates[..., d:]
        return (h_prev, hr), (dcand_scale, dz_scale, dr_scale, z, r)

    def recur_backward(self, factors, t, dstate, wh_t, dpre):
        dcand_scale, dz_scale, dr_scale, z, r = factors
        dh = dstate[0]
        d = self.hidden_dim
        dpre_c = dpre[..., 2 * d :]
        np.multiply(dh, dcand_scale[t], out=dpre_c)
        dhr = dpre_c @ wh_t[1]
        np.multiply(dh, dz_scale[t], out=dpre[..., :d])
        np.multiply(dhr, dr_scale[t], out=dpre[..., d : 2 * d])
        return (dh * z[t] + dhr * r[t] + dpre[..., : 2 * d] @ wh_t[0],)


@dataclass
class SequenceBatch:
    """A padded batch of sequences: data [n×T×i] plus the true length of each row.

    Rows are zero-padded past their true length; lengths satisfy 1 <= L <= T.
    """

    data: np.ndarray
    lengths: list = field(default_factory=list)

    def __post_init__(self):
        self.lengths = [int(v) for v in self.lengths]
        if self.data.ndim != 3:
            raise DimensionError(f"sequence batch must be [n,T,i], got {self.data.shape}")
        n, T, _ = self.data.shape
        if len(self.lengths) != n:
            raise DimensionError(f"{len(self.lengths)} lengths for {n} rows")
        for L in self.lengths:
            if not 1 <= L <= T:
                raise DataError(f"length {L} outside [1, {T}]")

    def __len__(self):
        return self.data.shape[0]


def _directions(cell):
    """The cells `unroll` runs and, for each, whether it reads time backwards."""
    if isinstance(cell, BidirectionalLayer):
        return (cell.cell_fwd, cell.cell_bwd), (False, True)
    return (cell,), (False,)


def unroll(cell, batch: SequenceBatch, *, train=True):
    """Run a cell across time. Returns (outputs [n×T×d], last_valid [n×d], cache).
    With train=False the cache is None: no per-step tape is kept for BPTT.

    A cell reads t = 1..L of each row, where L is the row's true length, and
    last_valid is the state after the row's final true step. `cell` may also
    be a BidirectionalLayer, whose backward cell reads t = L..1 and ends
    after step 1. Its two cells run in the same loop, and outputs and
    last_valid hold the two directions side by side, forward first
    ([n×T×2d], [n×2d]).

    Every direction steps forward through its own reading order: step s reads
    true step t = s of a row in a forward cell and t = L-1-s in a backward
    one. So in every direction a row's steps s < L are its true steps, and
    one `valid` mask [s, row] freezes every direction's state at s >= L. The
    arrays the loop writes carry a direction axis of k = 1 or 2 entries and
    are allocated once per call, step-ordered: one state buffer per state,
    [t_run+1, k, n, d] with row 0 the zero start, and one tape array per
    `tape_widths` entry, [t_run, k, n, w] (one slot that every step reuses
    when train=False). Step s reads state row s and writes row s+1, so the
    states before each step, which BPTT needs, are the buffer's first t_run
    rows. Each valid (t, row) pair's step slot, per direction, is worked out
    once from `np.nonzero(valid)` and moves rows between time order and step
    order in both passes.

    The recurrent halves W_h^T are contiguous copies stacked [k, d, G], and
    BPTT multiplies by their transposed views. numpy's stacked matmul then
    makes the same GEMM call for each direction's slice, so both directions
    come out bit-identical to two separate unrolls. Either operand laid out
    the other way (a transposed view forward, a contiguous W_h backward)
    flips BLAS's transpose flag, and the products round differently.
    """
    cells, reverse = _directions(cell)
    x = batch.data
    n, T, i = x.shape
    for c in cells:
        if i != c.input_dim:
            raise DimensionError(f"input width {i} does not match input_dim {c.input_dim}")
    lengths = np.asarray(batch.lengths)
    t_run = int(lengths.max())  # later steps are padding in every row
    valid = np.arange(t_run)[:, None] < lengths  # [s, row], in every direction
    frozen = ~valid[:, :, None]  # broadcasts over a step's [k, n, d] states
    partial = frozen.any(axis=(1, 2)).tolist()
    # Every valid (t, row) pair, t-major, and per direction its flat row in a
    # step-ordered [t_run, k, n] buffer: slot_of [k, V].
    t_of, row_of = np.nonzero(valid)
    k = len(cells)
    steps = [lengths[row_of] - 1 - t_of if rev else t_of for rev in reverse]
    slot_of = np.array([(s * k + j) * n + row_of for j, s in enumerate(steps)])
    step = cells[0]  # both cells are of one kind, so one runs the steps
    d = step.hidden_dim
    split = [c.split_weights() for c in cells]
    w_x, b = np.array([w for w, _, _ in split]), np.array([bias for _, bias, _ in split])
    w_h = [np.array(same) for same in zip(*(wh for _, _, wh in split))]
    w_x_halved, b_halved, w_h_halved = step.forward_weights(w_x, b, w_h)
    x_valid = x[row_of, t_of]
    # One step-ordered buffer per block, so each step reads contiguous rows.
    xp = [np.zeros((t_run, k, n, w.shape[-1]), dtype=x.dtype) for w in w_h_halved]
    for j in range(k):
        for xp_block, part in zip(xp, _column_blocks(x_valid @ w_x_halved[j].T + b_halved[j], w_h_halved)):
            xp_block.reshape(-1, part.shape[1])[slot_of[j]] = part
        del part  # a view of this direction's projection: free it before the next
    states = step.zero_state(t_run + 1, k, n)
    tape = [np.empty((t_run if train else 1, k, n, w), dtype=x.dtype) for w in step.tape_widths()]
    # Per-step rows come from iterating the buffers, which costs less than
    # indexing each one every step; an empty or one-slot tape repeats its slot.
    slots = zip(*tape) if train and tape else repeat([a[0] for a in tape])
    rows = zip(zip(*xp), zip(*states), zip(*(s[1:] for s in states)), slots, partial, frozen)
    for xp_s, state, new_state, slots_s, is_partial, frozen_s in rows:
        step.recur(xp_s, w_h_halved, state, new_state, slots_s)
        if is_partial:  # frozen rows keep their state
            for new, old in zip(new_state, state):
                np.copyto(new, old, where=frozen_s)
    # xp is spent; free it, and the loop's views of it, before the outputs are assembled
    del xp, rows, xp_s
    h = states[0]
    out = np.zeros((T, n, k * d), dtype=x.dtype)
    out[t_of, row_of] = np.take(h[1:].reshape(-1, d), slot_of.T, axis=0).reshape(-1, k * d)
    last = np.concatenate(h[-1], axis=1)  # a copy: the cache's tape holds the buffer
    if not train:
        return out.transpose(1, 0, 2), last, None
    return out.transpose(1, 0, 2), last, ([*states, *tape], frozen, partial, t_of, row_of, slot_of, x_valid, w_x, w_h, T)


def unroll_backward(cell, cache, grad_outputs=None, grad_last=None, input_grad=True):
    """Exact gradients for `unroll`. Returns (param_grads, grad_input [n×T×i]).
    With input_grad=False the input gradient is not computed and grad_input
    is None: a stack's bottom layer, whose input is data, needs only its
    parameter gradients.

    `cell` is what was passed to `unroll`; a BidirectionalLayer's gradients
    are the forward cell's followed by the backward cell's. Either upstream
    gradient may be None (treated as zero). Gradients at padded steps are
    zero, and state gradients pass straight through frozen steps. The cache
    serves one backward pass: it frees the forward's per-step tape.
    """
    if cache is None:
        raise ContractError("unroll_backward got the cache of an unroll that ran with train=False")
    saved, frozen, partial, t_of, row_of, slot_of, x_valid, w_x, w_h, T = cache
    if not saved:
        raise ContractError("unroll_backward already ran on this cache; run unroll again")
    step = _directions(cell)[0][0]  # the cell that ran the steps
    t_run, n = frozen.shape[:2]
    k, d = len(slot_of), step.hidden_dim
    dtype = default_dtype()
    hins, factors = step.local_grads(*saved)
    saved.clear()
    dstate = step.zero_state(k, n)
    if grad_last is not None:
        np.add(dstate[0], grad_last.reshape(n, k, d).swapaxes(0, 1), dstate[0])
    grad_tm = None
    if grad_outputs is not None:
        grad_tm = np.zeros((t_run, k, n, d), dtype=dtype)
        grad_tm.reshape(-1, d)[slot_of.T] = grad_outputs[row_of, t_of].reshape(-1, k, d)
    dpre = np.empty((t_run, k, n, w_x.shape[1]), dtype=dtype)
    wh_t = [w.swapaxes(-1, -2) for w in w_h]
    for s in range(t_run - 1, -1, -1):
        if grad_tm is not None:
            np.add(dstate[0], grad_tm[s], dstate[0])
        dstate_prev = step.recur_backward(factors, s, dstate, wh_t, dpre[s])
        if partial[s]:  # frozen rows: discard the step, pass the gradient through
            for dp, ds in zip(dstate_prev, dstate):
                np.copyto(dp, ds, where=frozen[s])
        dstate = dstate_prev
    # Both directions' factors are held at once; drop them before the gathers.
    del factors, grad_tm
    # One GEMM each over all valid row-steps instead of one per step, each
    # direction's rows gathered back into t-major order.
    widths = [w.shape[-1] for w in w_h]
    dpre = dpre.reshape(-1, dpre.shape[-1])
    hins = [hin.reshape(-1, hin.shape[-1]) for hin in hins]
    param_grads, grad_x_valid = [], []
    for slot_of_j, w_x_j in zip(slot_of, w_x):
        dpre_valid = np.take(dpre, slot_of_j, axis=0)
        if input_grad:
            grad_x_valid.append(dpre_valid @ w_x_j)
        dW_x = dpre_valid.T @ x_valid
        db = dpre_valid.sum(axis=0)
        weights, biases = [], []
        lo = 0
        for hin, width in zip(hins, widths):
            hi = lo + width
            dW_h = dpre_valid[:, lo:hi].T @ np.take(hin, slot_of_j, axis=0)
            weights.append(np.concatenate([dW_x[lo:hi], dW_h], axis=1))
            biases.append(db[lo:hi])
            lo = hi
        param_grads += weights + biases
    if not input_grad:
        return param_grads, None
    grad_x = np.zeros((T, n, x_valid.shape[1]), dtype=dtype)
    grad_x[t_of, row_of] = sum(grad_x_valid[1:], grad_x_valid[0])
    return param_grads, grad_x.transpose(1, 0, 2)


class BidirectionalLayer:
    """Forward and backward cells of one kind over the same input, outputs
    concatenated; `unroll` runs both in one time loop."""

    def __init__(self, cell_fwd, cell_bwd):
        if cell_fwd.hidden_dim != cell_bwd.hidden_dim:
            raise DimensionError(
                f"direction widths differ: {cell_fwd.hidden_dim} vs {cell_bwd.hidden_dim}"
            )
        kinds = [type(c).__name__ for c in (cell_fwd, cell_bwd)]
        if kinds[0] != kinds[1]:
            raise ConfigError(f"direction cells differ in kind: {kinds[0]} vs {kinds[1]}")
        self.cell_fwd = cell_fwd
        self.cell_bwd = cell_bwd

    @property
    def out_dim(self):
        return 2 * self.cell_fwd.hidden_dim

    @property
    def input_dim(self):
        return self.cell_fwd.input_dim

    def param_arrays(self):
        return self.cell_fwd.param_arrays() + self.cell_bwd.param_arrays()

    def param_items(self):
        names = ["fwd." + n for n in self.cell_fwd.param_names] + ["bwd." + n for n in self.cell_bwd.param_names]
        return list(zip(names, self.param_arrays()))


def stack(layers, batch: SequenceBatch, train=True):
    """Unroll a list of layers (cells, which run forward, or
    BidirectionalLayers); layer l consumes the full output sequence of layer
    l-1. Returns (per-layer outputs, top last_valid, caches); with
    train=False every cache is None."""
    outputs = []
    caches = []
    current = batch
    for idx, layer in enumerate(layers):
        if layer.input_dim != current.data.shape[2]:
            raise DimensionError(
                f"layer {idx} expects width {layer.input_dim}, got {current.data.shape[2]}"
            )
        out, last, cache = unroll(layer, current, train=train)
        outputs.append(out)
        caches.append(cache)
        current = SequenceBatch(out, batch.lengths)
    return outputs, last, caches


def stack_backward(layers, caches, grad_top_outputs=None, grad_top_last=None, input_grad=True):
    """Backprop through a stack. Returns (grad wrt the original input sequence,
    per-layer param gradient lists, ordered like `layers`). With
    input_grad=False the bottom layer skips its input gradient and the first
    entry is None."""
    per_layer = [None] * len(layers)
    grad_seq = grad_top_outputs
    grad_last = grad_top_last
    for idx in range(len(layers) - 1, -1, -1):
        per_layer[idx], grad_seq = unroll_backward(
            layers[idx], caches[idx], grad_seq, grad_last, input_grad=input_grad or idx > 0
        )
        grad_last = None
    return grad_seq, per_layer
