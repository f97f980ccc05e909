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
`_Cell.step` applies one step to a batch of input rows. `unroll` runs the
same `recur` in a time-major loop (Appleyard et al., arXiv:1604.01946): the
input half of every fused matmul, x_t W_x^T + b, is taken out of the loop as
one GEMM over all valid (t, row) pairs, so each step only adds h_prev W_h^T.
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

A bidirectional layer runs both of its cells in that one loop, batching the
two directions' independent per-step GEMMs as Appleyard et al. do: states
carry a leading direction axis ([2, n, d]) and the recurrent weight halves
are stacked [2, d, G], so each step makes one round of small numpy calls for
both directions instead of two. A one-direction unroll keeps plain [n, d]
arrays; the step methods are written for either.
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


def param_count(cell) -> int:
    """Total number of scalar parameters (weights and biases) in a cell."""
    return sum(a.size for a in cell.param_arrays())


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
      plus one in-place affine ((tanh(p/2) + 1) / 2 without the p/2). `step`
      projects one input row batch and calls it.
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
    before it, so the same code runs one direction ([n, .] states, [d, G]
    weights) or two stacked ([2, n, .] states, [2, d, G] weights).
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
        """`split_weights`' (W_x, b, wh) for `recur`, with the first
        `sigmoid_width` fused columns halved. Halving is exact (outside the
        subnormal range), so the projections come out as exactly half the
        pre-activations and the sigmoid's own halving is saved. A cell with no
        sigmoid columns gets the given arrays back, not scaled copies."""
        if not self.sigmoid_width:
            return w_x, b, wh
        scale = np.ones_like(b)
        scale[: self.sigmoid_width] = 0.5
        halved = [w * s for w, s in zip(wh, _column_blocks(scale, wh))]
        return w_x * scale[:, None], b * scale, halved

    def step(self, x_t, state):
        """One step over a row batch x_t [n, i] from `state` (h, or (h, c) for
        the LSTM, each [n, d]). Returns (h_t, new_state). It makes the calls a
        length-one `unroll` makes, so the two agree bit for bit."""
        i, d = self.input_dim, self.hidden_dim
        if x_t.ndim != 2 or x_t.shape[1] != i:
            raise DimensionError(f"x_t shape {x_t.shape} does not match input_dim {i}")
        h_prev = state[0]
        n = x_t.shape[0]
        if h_prev.shape != (n, d):
            raise DimensionError(f"h_prev shape {h_prev.shape} does not match (n={n}, d={d})")
        for s in state[1:]:
            if s.shape != h_prev.shape:
                raise DimensionError(f"c_prev shape {s.shape} != h_prev shape {h_prev.shape}")
        w_x, b, wh = self.forward_weights(*self.split_weights())
        new_state = self.zero_state(n)
        slots = [np.empty((n, w), dtype=default_dtype()) for w in self.tape_widths()]
        self.recur(_column_blocks(x_t @ w_x.T + b, wh), wh, state, new_state, slots)
        return new_state[0], new_state


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

    def __getitem__(self, rows):
        """The rows a slice or an index array picks, each with its own length."""
        return SequenceBatch(self.data[rows], np.asarray(self.lengths)[rows])


def _directions(cell, direction):
    """The cells `unroll` runs and, for each, whether it walks time backwards."""
    if isinstance(cell, BidirectionalLayer):
        return (cell.cell_fwd, cell.cell_bwd), (False, True)
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    return (cell,), (direction == "backward",)


def _stacked(arrays, axis=0):
    """One direction's array as it is; two stacked on a new direction axis."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays, axis=axis)


def _time_views(a, reverse):
    """Split a step-ordered array [t_run, (2,) n, ...] into one time-ordered
    [t_run, n, ...] view per direction."""
    if len(reverse) == 1:
        return [a[::-1] if reverse[0] else a]
    return [a[::-1, j] if rev else a[:, j] for j, rev in enumerate(reverse)]


def _step_ordered(parts, reverse):
    """The inverse of `_time_views`: per-direction time-ordered arrays as one
    step-ordered array."""
    return _stacked([p[::-1] if rev else p for p, rev in zip(parts, reverse)], axis=1)


def _split_columns(a, parts):
    """Split the last axis into `parts` equal blocks, one per direction."""
    w = a.shape[-1] // parts
    return [a[..., j * w : (j + 1) * w] for j in range(parts)]


def unroll(cell, batch: SequenceBatch, direction="forward", train=True):
    """Run a cell across time. Returns (outputs [n×T×d], last_valid [n×d], cache).
    With train=False the cache is None: no per-step tape is kept for BPTT.

    Forward direction iterates t = 1..T, backward t = T..1; in both cases a
    row's state only updates at steps inside its true length, so last_valid is
    the state at the final true step (forward) or at step 1 (backward).

    `cell` may also be a BidirectionalLayer (`direction` then does not
    apply). Its two cells run in the same loop over states stacked [2, n, d]:
    step k advances the forward cell at t = k and the backward cell at
    t = t_run-1-k, and outputs and last_valid hold the two directions side by
    side, forward first ([n×T×2d], [n×2d]).

    Every array the loop writes is allocated once per call, step-ordered: one
    state buffer per state, [t_run+1, (2,) n, d] with row 0 the zero start,
    and one tape array per `tape_widths` entry, [t_run, (2,) n, w] (one slot
    that every step reuses when train=False). Step k reads state row k and
    writes row k+1, so the states before each step, which BPTT needs, are the
    buffer's first t_run rows and the outputs are its last t_run.

    Only a forward-running cell needs its state frozen at padded steps. A
    backward-running cell meets a row's padding before the row's first true
    step, from a zero state and with a zero projected input (the bias is added
    at valid pairs only), so it stays exactly zero there without a freeze:
    tanh(0) = 0, and the sigmoid gates multiply zeros.

    The recurrent halves W_h^T are contiguous copies, [d, G] or stacked
    [2, d, G], and BPTT multiplies by their transposed views. numpy's stacked
    matmul then makes the same GEMM call for each direction's slice as a
    one-direction unroll makes, so both directions come out bit-identical to
    two separate unrolls. Either operand laid out the other way (a transposed
    view forward, a contiguous W_h backward) flips BLAS's transpose flag, and
    the products round differently.
    """
    cells, reverse = _directions(cell, direction)
    x = batch.data
    n, T, i = x.shape
    for c in cells:
        if i != c.input_dim:
            raise DimensionError(f"input width {i} does not match input_dim {c.input_dim}")
    lengths = np.asarray(batch.lengths)
    t_run = int(lengths.max())  # later steps are padding in every row
    valid = np.arange(t_run)[:, None] < lengths  # [t, row]
    step = cells[0]  # both cells are of one kind, so one runs the steps
    d = step.hidden_dim
    lead = (2,) if len(cells) == 2 else ()  # the direction axis
    split = [c.split_weights() for c in cells]
    halved = [c.forward_weights(*weights) for c, weights in zip(cells, split)]
    w_x = [w for w, _, _ in split]
    w_h = [_stacked(same) for same in zip(*(wh for _, _, wh in split))]
    w_h_halved = [_stacked(same) for same in zip(*(wh for _, _, wh in halved))]
    x_valid = x.transpose(1, 0, 2)[:t_run][valid]
    # One step-ordered buffer per block, so each step reads contiguous rows:
    # each direction's projections go straight into their slots, the backward
    # direction's through a reversed time view.
    xp = [np.zeros((t_run, *lead, n, w.shape[-1]), dtype=x.dtype) for w in w_h_halved]
    for j, (w, b, _) in enumerate(halved):
        for xp_block, part in zip(xp, _column_blocks(x_valid @ w.T + b, w_h_halved)):
            _time_views(xp_block, reverse)[j][valid] = part
        del part  # a view of this direction's projection: free it before the next
    # only a forward-running cell is frozen at padded steps
    frozen = _stacked([np.zeros_like(valid) if rev else ~valid for rev in reverse], axis=1)[..., None]
    partial = frozen.any(axis=tuple(range(1, frozen.ndim))).tolist()
    states = step.zero_state(t_run + 1, *lead, n)
    tape = [np.empty((t_run if train else 1, *lead, n, w), dtype=x.dtype) for w in step.tape_widths()]
    # Per-step rows come from iterating the buffers, which costs less than
    # indexing each one every step; an empty or one-slot tape repeats its slot.
    slots = zip(*tape) if train and tape else repeat([a[0] for a in tape])
    rows = zip(zip(*xp), zip(*states), zip(*(s[1:] for s in states)), slots, partial, frozen)
    for xp_k, state, new_state, slots_k, is_partial, frozen_k in rows:
        step.recur(xp_k, w_h_halved, state, new_state, slots_k)
        if is_partial:  # frozen rows keep their state
            for s_new, s in zip(new_state, state):
                np.copyto(s_new, s, where=frozen_k)
    # xp is spent; free it, and the loop's views of it, before the outputs are assembled
    del xp, rows, xp_k
    h = states[0]
    out = np.zeros((T, n, len(cells) * d), dtype=x.dtype)
    for cols, h_j in zip(_split_columns(out[:t_run], len(cells)), _time_views(h[1:], reverse)):
        cols[...] = h_j
    out[:t_run][~valid] = 0.0
    # a copy: the cache's tape holds the buffer
    last = np.concatenate(h[-1], axis=1) if lead else h[-1].copy()
    if not train:
        return out.transpose(1, 0, 2), last, None
    return out.transpose(1, 0, 2), last, ([*states, *tape], frozen, partial, valid, x_valid, w_x, w_h, direction, T)


def unroll_backward(cell, cache, grad_outputs=None, grad_last=None):
    """Exact gradients for `unroll`. Returns (param_grads, grad_input [n×T×i]).

    `cell` is what was passed to `unroll`; a BidirectionalLayer's gradients
    are the forward cell's followed by the backward cell's. Either upstream
    gradient may be None (treated as zero). Gradients at padded steps are
    zero, and state gradients pass straight through frozen steps. The cache
    serves one backward pass: it frees the forward's per-step tape.
    """
    if cache is None:
        raise ContractError("unroll_backward got the cache of an unroll that ran with train=False")
    saved, frozen, partial, valid, x_valid, w_x, w_h, direction, T = cache
    if not saved:
        raise ContractError("unroll_backward already ran on this cache; run unroll again")
    cells, reverse = _directions(cell, direction)
    step = cells[0]
    t_run, n = valid.shape
    lead = frozen.shape[1:-2]
    dtype = default_dtype()
    hins, factors = step.local_grads(*saved)
    saved.clear()
    dstate = step.zero_state(*lead, n)
    if grad_last is not None:
        np.add(dstate[0], _stacked(_split_columns(grad_last, len(cells))), dstate[0])
    grad_tm = None
    if grad_outputs is not None:
        grad_tm = grad_outputs.transpose(1, 0, 2)[:t_run] * valid[:, :, None]
        grad_tm = _step_ordered(_split_columns(grad_tm, len(cells)), reverse)
    dpre = np.empty((t_run, *lead, n, w_x[0].shape[0]), dtype=dtype)
    wh_t = [w.swapaxes(-1, -2) for w in w_h]
    for k in range(t_run - 1, -1, -1):
        if grad_tm is not None:
            np.add(dstate[0], grad_tm[k], dstate[0])
        dstate_prev = step.recur_backward(factors, k, dstate, wh_t, dpre[k])
        if partial[k]:  # frozen rows: discard the step, pass the gradient through
            for dp, ds in zip(dstate_prev, dstate):
                np.copyto(dp, ds, where=frozen[k])
        dstate = dstate_prev
    # Both directions' factors are held at once; drop them before the gathers.
    del factors, grad_tm
    # One GEMM each over all valid row-steps instead of one per step.
    widths = [w.shape[-1] for w in w_h]
    hins_by_direction = zip(*(_time_views(hin, reverse) for hin in hins))
    param_grads, grad_x_valid = [], []
    for dpre_j, hins_j, w_x_j in zip(_time_views(dpre, reverse), hins_by_direction, w_x):
        dpre_valid = dpre_j[valid]
        grad_x_valid.append(dpre_valid @ w_x_j)
        dW_x = dpre_valid.T @ x_valid
        db = dpre_valid.sum(axis=0)
        weights, biases = [], []
        lo = 0
        for hin, width in zip(hins_j, widths):
            hi = lo + width
            weights.append(np.concatenate([dW_x[lo:hi], dpre_valid[:, lo:hi].T @ hin[valid]], axis=1))
            biases.append(db[lo:hi])
            lo = hi
        param_grads += weights + biases
    grad_x = np.zeros((T, n, x_valid.shape[1]), dtype=dtype)
    grad_x[:t_run][valid] = sum(grad_x_valid[1:], grad_x_valid[0])
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


def stack_backward(layers, caches, grad_top_outputs=None, grad_top_last=None):
    """Backprop through a stack. Returns (grad wrt the original input sequence,
    per-layer param gradient lists, ordered like `layers`)."""
    per_layer = [None] * len(layers)
    grad_seq = grad_top_outputs
    grad_last = grad_top_last
    for idx in range(len(layers) - 1, -1, -1):
        per_layer[idx], grad_seq = unroll_backward(layers[idx], caches[idx], grad_seq, grad_last)
        grad_last = None
    return grad_seq, per_layer
