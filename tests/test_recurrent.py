import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostream.errors import ConfigError, ContractError, DimensionError
from twostream.tensor import Rng
from twostream.recurrent import (
    BidirectionalLayer,
    GruCell,
    LstmCell,
    RnnCell,
    SequenceBatch,
    init_gru_cell,
    init_lstm_cell,
    init_rnn_cell,
    param_count,
    stack,
    stack_backward,
    unroll,
    unroll_backward,
)

from conftest import central_diff, max_rel_err, sigmoid, step


# ---------------------------------------------------------------------------
# Independent oracles: straight-line scalar steps, and numpy per-step forward
# and backward references on the fused [x ; h] weights
# ---------------------------------------------------------------------------


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_lstm_step(W, b, x_row, h_row, c_row):
    d = len(h_row)
    xh = list(x_row) + list(h_row)
    pre = [sum(W[r][k] * xh[k] for k in range(len(xh))) + b[r] for r in range(4 * d)]
    gi = [_sig(pre[r]) for r in range(d)]
    gf = [_sig(pre[d + r]) for r in range(d)]
    go = [_sig(pre[2 * d + r]) for r in range(d)]
    cand = [math.tanh(pre[3 * d + r]) for r in range(d)]
    c_new = [gf[r] * c_row[r] + gi[r] * cand[r] for r in range(d)]
    h_new = [go[r] * math.tanh(c_new[r]) for r in range(d)]
    return h_new, c_new


def scalar_gru_step(Wg, Wc, bg, bc, x_row, h_row):
    d = len(h_row)
    xh = list(x_row) + list(h_row)
    pre_g = [sum(Wg[r][k] * xh[k] for k in range(len(xh))) + bg[r] for r in range(2 * d)]
    z = [_sig(pre_g[r]) for r in range(d)]
    r_gate = [_sig(pre_g[d + r]) for r in range(d)]
    xhr = list(x_row) + [r_gate[r] * h_row[r] for r in range(d)]
    pre_c = [sum(Wc[r][k] * xhr[k] for k in range(len(xhr))) + bc[r] for r in range(d)]
    cand = [math.tanh(pre_c[r]) for r in range(d)]
    return [z[r] * h_row[r] + (1.0 - z[r]) * cand[r] for r in range(d)]


def rnn_step_reference(p, x_t, h_prev):
    xh = np.concatenate([x_t, h_prev], axis=1)
    h_t = np.tanh(xh @ p.W.T + p.b)
    return h_t, (xh, h_t)


def rnn_step_reference_backward(p, cache, dh):
    xh, h_t = cache
    dpre = dh * (1.0 - h_t * h_t)
    dxh = dpre @ p.W
    i = p.input_dim
    return dxh[:, :i], dxh[:, i:], [dpre.T @ xh, dpre.sum(axis=0)]


def lstm_step_reference(p, x_t, h_prev, c_prev):
    d = p.hidden_dim
    xh = np.concatenate([x_t, h_prev], axis=1)
    pre = xh @ p.W.T + p.b
    gi = sigmoid(pre[:, :d])
    gf = sigmoid(pre[:, d : 2 * d])
    go = sigmoid(pre[:, 2 * d : 3 * d])
    cand = np.tanh(pre[:, 3 * d :])
    c_t = gf * c_prev + gi * cand
    tc = np.tanh(c_t)
    return go * tc, c_t, (xh, c_prev, gi, gf, go, cand, tc)


def lstm_step_reference_backward(p, cache, dh, dc):
    xh, c_prev, gi, gf, go, cand, tc = cache
    dct = dc + dh * go * (1.0 - tc * tc)
    dpre = np.concatenate(
        [
            dct * cand * gi * (1.0 - gi),
            dct * c_prev * gf * (1.0 - gf),
            dh * tc * go * (1.0 - go),
            dct * gi * (1.0 - cand * cand),
        ],
        axis=1,
    )
    dxh = dpre @ p.W
    i = p.input_dim
    return dxh[:, :i], dxh[:, i:], dct * gf, [dpre.T @ xh, dpre.sum(axis=0)]


def gru_step_reference(p, x_t, h_prev):
    d = p.hidden_dim
    xh = np.concatenate([x_t, h_prev], axis=1)
    gates = sigmoid(xh @ p.W_gates.T + p.b_gates)
    z, r = gates[:, :d], gates[:, d:]
    xhr = np.concatenate([x_t, r * h_prev], axis=1)
    cand = np.tanh(xhr @ p.W_cand.T + p.b_cand)
    return z * h_prev + (1.0 - z) * cand, (xh, xhr, h_prev, z, r, cand)


def gru_step_reference_backward(p, cache, dh):
    xh, xhr, h_prev, z, r, cand = cache
    i = p.input_dim
    dpre_c = dh * (1.0 - z) * (1.0 - cand * cand)
    dxhr = dpre_c @ p.W_cand
    dhr = dxhr[:, i:]
    dpre_g = np.concatenate([dh * (h_prev - cand) * z * (1.0 - z), dhr * h_prev * r * (1.0 - r)], axis=1)
    dxh = dpre_g @ p.W_gates
    grads = [dpre_g.T @ xh, dpre_c.T @ xhr, dpre_g.sum(axis=0), dpre_c.sum(axis=0)]
    return dxhr[:, :i] + dxh[:, :i], dh * z + dhr * r + dxh[:, i:], grads


# ---------------------------------------------------------------------------
# Cell forward behaviour
# ---------------------------------------------------------------------------


class TestRnnCell:
    def test_zero_weights_give_zero_state(self):
        cell = RnnCell(W=np.zeros((3, 5)), b=np.zeros(3))
        h, _ = step(cell, np.random.rand(4, 2), (np.random.rand(4, 3),))
        assert np.array_equal(h, np.zeros((4, 3)))

    def test_scalar_hand_evaluation(self):
        cell = RnnCell(W=np.array([[1.0, 0.0]]), b=np.zeros(1))
        h, _ = step(cell, np.array([[0.5]]), (np.array([[0.0]]),))
        assert h[0, 0] == pytest.approx(0.46211715726, abs=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        cell = init_rnn_cell(3, 4, rng)
        with pytest.raises(DimensionError, match="input width 5 does not match input_dim 3"):
            unroll(cell, SequenceBatch(np.zeros((2, 1, 5)), [1, 1]))

    def test_forward_weights_are_the_split_weights_themselves(self, rng):
        # no sigmoid columns to halve, so no scaled copies either
        cell = init_rnn_cell(3, 4, rng)
        split = cell.split_weights()
        w_x, b, wh = cell.forward_weights(*split)
        assert w_x is split[0] and b is split[1] and wh is split[2]


class TestLstmCell:
    def test_memory_keep_identity(self, rng):
        # forget gate forced open, input gate forced closed
        d = 4
        cell = LstmCell(W=np.zeros((4 * d, 3 + d)), b=np.zeros(4 * d))
        cell.b[:d] = -50.0  # input gate shut
        cell.b[d : 2 * d] = 50.0  # forget gate open
        c_prev = rng.normal(size=(5, d))
        _, (_, c_t) = step(cell, rng.normal(size=(5, 3)), (rng.normal(size=(5, d)), c_prev))
        assert np.abs(c_t - c_prev).max() <= 1e-12

    def test_closed_output_gate_zeroes_state(self, rng):
        d = 3
        cell = LstmCell(W=np.zeros((4 * d, 2 + d)), b=np.zeros(4 * d))
        cell.b[2 * d : 3 * d] = -50.0
        h_t, _ = step(cell, rng.normal(size=(4, 2)), (rng.normal(size=(4, d)), rng.normal(size=(4, d))))
        assert np.abs(h_t).max() <= 1e-12

    def test_matches_scalar_oracle(self):
        rng = Rng(7)
        n, i, d = 2, 3, 4
        cell = init_lstm_cell(i, d, rng)
        cell.W[...] = rng.normal(0.0, 0.5, size=cell.W.shape)
        cell.b[...] = rng.normal(0.0, 0.5, size=cell.b.shape)
        x = rng.normal(size=(n, i))
        h0 = rng.normal(size=(n, d))
        c0 = rng.normal(size=(n, d))
        h1, (_, c1) = step(cell, x, (h0, c0))
        for row in range(n):
            h_ref, c_ref = scalar_lstm_step(
                cell.W.tolist(), cell.b.tolist(), x[row].tolist(), h0[row].tolist(), c0[row].tolist()
            )
            assert np.abs(h1[row] - np.array(h_ref)).max() <= 1e-12
            assert np.abs(c1[row] - np.array(c_ref)).max() <= 1e-12


def _hand_written_step(cell, x, state):
    """One step from the unhalved split weights with the reference sigmoid."""
    w_x, b, wh = cell.split_weights()
    xp = x @ w_x.T + b
    h, d = state[0], cell.hidden_dim
    if isinstance(cell, GruCell):
        gates = sigmoid(xp[:, : 2 * d] + h @ wh[0])
        z, r = gates[:, :d], gates[:, d:]
        cand = np.tanh(xp[:, 2 * d :] + (r * h) @ wh[1])
        return (z * h + (1.0 - z) * cand,)
    pre = xp + h @ wh[0]
    gates = sigmoid(pre[:, : 3 * d])
    c = gates[:, d : 2 * d] * state[1] + gates[:, :d] * np.tanh(pre[:, 3 * d :])
    return gates[:, 2 * d :] * np.tanh(c), c


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_step_equals_hand_written_step_with_reference_sigmoid(kind, rng):
    # pins the halved-weight sigmoid gates to the reference sigmoid bit for bit,
    # including pre-activations far into saturation
    i, d, n = 8, 6, 40
    cell = _random_cell(kind, i, d, rng)
    for a in cell.param_arrays():
        a[...] = rng.normal(0.0, 2.0, size=a.shape)
    x = rng.normal(0.0, 2.0, size=(n, i))
    state = tuple(rng.normal(size=(n, d)) for _ in range(cell.n_state))
    w_x, b, _ = cell.split_weights()
    assert np.abs(x @ w_x.T + b).max() > 20.0
    h_t, new_state = step(cell, x, state)
    want = _hand_written_step(cell, x, state)
    assert np.array_equal(h_t, want[0])
    assert all(np.array_equal(got, w) for got, w in zip(new_state, want))


class TestGruCell:
    def test_update_gate_open_passes_state_through(self, rng):
        d = 4
        cell = GruCell(
            W_gates=np.zeros((2 * d, 3 + d)),
            W_cand=rng.normal(size=(d, 3 + d)),
            b_gates=np.zeros(2 * d),
            b_cand=rng.normal(size=d),
        )
        cell.b_gates[:d] = 50.0  # z -> 1
        h_prev = rng.normal(size=(6, d))
        h_t, _ = step(cell, rng.normal(size=(6, 3)), (h_prev,))
        assert np.abs(h_t - h_prev).max() <= 1e-12

    def test_both_gates_closed_reduces_to_candidate_of_input_only(self, rng):
        d, i = 3, 2
        cell = GruCell(
            W_gates=np.zeros((2 * d, i + d)),
            W_cand=rng.normal(size=(d, i + d)),
            b_gates=np.full(2 * d, -50.0),  # z -> 0, r -> 0
            b_cand=rng.normal(size=d),
        )
        x = rng.normal(size=(5, i))
        h_t, _ = step(cell, x, (rng.normal(size=(5, d)),))
        expected = np.tanh(
            np.concatenate([x, np.zeros((5, d))], axis=1) @ cell.W_cand.T + cell.b_cand
        )
        assert np.abs(h_t - expected).max() <= 1e-10

    def test_matches_scalar_oracle(self):
        rng = Rng(7)
        n, i, d = 2, 3, 4
        cell = init_gru_cell(i, d, rng)
        cell.b_gates[...] = rng.normal(0.0, 0.3, size=cell.b_gates.shape)
        cell.b_cand[...] = rng.normal(0.0, 0.3, size=cell.b_cand.shape)
        x = rng.normal(size=(n, i))
        h0 = rng.normal(size=(n, d))
        h1, _ = step(cell, x, (h0,))
        for row in range(n):
            ref = scalar_gru_step(
                cell.W_gates.tolist(),
                cell.W_cand.tolist(),
                cell.b_gates.tolist(),
                cell.b_cand.tolist(),
                x[row].tolist(),
                h0[row].tolist(),
            )
            assert np.abs(h1[row] - np.array(ref)).max() <= 1e-12

    def test_gate_identities_hold_for_many_random_states(self, rng):
        d = 3
        cell = GruCell(
            W_gates=np.zeros((2 * d, 2 + d)),
            W_cand=rng.normal(size=(d, 2 + d)),
            b_gates=np.zeros(2 * d),
            b_cand=np.zeros(d),
        )
        cell.b_gates[:d] = 50.0
        for _ in range(25):
            h_prev = rng.normal(0.0, 2.0, size=(3, d))
            h_t, _ = step(cell, rng.normal(size=(3, 2)), (h_prev,))
            assert np.abs(h_t - h_prev).max() <= 1e-10


class TestParamCount:
    @pytest.mark.parametrize("i,d", [(1, 1), (3, 4), (150, 300), (24, 32)])
    def test_gru_is_exactly_three_quarters_of_lstm(self, i, d, rng):
        gru = init_gru_cell(i, d, rng)
        lstm = init_lstm_cell(i, d, rng)
        assert param_count(gru) * 4 == param_count(lstm) * 3

    def test_counts_include_biases(self, rng):
        lstm = init_lstm_cell(3, 4, rng)
        assert param_count(lstm) == 4 * 4 * (3 + 4) + 4 * 4


# ---------------------------------------------------------------------------
# Unrolling, masking, directions
# ---------------------------------------------------------------------------


def _random_cell(kind, i, d, rng):
    if kind == "rnn":
        return init_rnn_cell(i, d, rng)
    if kind == "lstm":
        return init_lstm_cell(i, d, rng)
    return init_gru_cell(i, d, rng)


def _random_biased_cell(kind, i, d, rng):
    """A random cell whose biases are nonzero too, so a bias that leaked into
    a padded step would move the state there."""
    cell = _random_cell(kind, i, d, rng)
    for a in cell.param_arrays():
        if a.ndim == 1:
            a += rng.normal(0.0, 0.5, size=a.shape)
    return cell


def _padded_rows_zeroed(x, lengths):
    x = x.copy()
    for row, L in enumerate(lengths):
        x[row, L:, :] = 0.0
    return x


def _reference_step(cell, x_t, state):
    if isinstance(cell, LstmCell):
        h, c, cache = lstm_step_reference(cell, x_t, state[0], state[1])
        return (h, c), cache
    if isinstance(cell, GruCell):
        h, cache = gru_step_reference(cell, x_t, state[0])
        return (h,), cache
    h, cache = rnn_step_reference(cell, x_t, state[0])
    return (h,), cache


def _reference_step_backward(cell, cache, dstate):
    if isinstance(cell, LstmCell):
        dx, dh, dc, grads = lstm_step_reference_backward(cell, cache, dstate[0], dstate[1])
        return dx, (dh, dc), grads
    backward = gru_step_reference_backward if isinstance(cell, GruCell) else rnn_step_reference_backward
    dx, dh, grads = backward(cell, cache, dstate[0])
    return dx, (dh,), grads


def _backward_half(cell, batch, r_out, r_last):
    """`cell` reading each row backwards, as the backward half of a
    BidirectionalLayer whose forward half gets no upstream gradient: its
    outputs, last state, parameter gradients and the input gradient."""
    d = cell.hidden_dim
    layer = BidirectionalLayer(cell, cell)
    out, last, cache = unroll(layer, batch)
    r_out, r_last = (np.concatenate([np.zeros_like(r), r], axis=-1) for r in (r_out, r_last))
    grads, gx = unroll_backward(layer, cache, r_out, r_last)
    return out[..., d:], last[:, d:], grads[len(grads) // 2 :], gx


def _reference_unroll(cell, x, lengths, direction, r_out, r_last):
    """Loop over the numpy step references, one row at a time and only
    over its true steps. Returns outputs, last state, and the gradients of
    sum(outputs * r_out) + sum(last * r_last)."""
    n, T, _ = x.shape
    out = np.zeros((n, T, cell.hidden_dim))
    last = np.zeros((n, cell.hidden_dim))
    grads = [np.zeros_like(a) for a in cell.param_arrays()]
    gx = np.zeros_like(x)
    for row, L in enumerate(lengths):
        steps = range(L) if direction == "forward" else range(L - 1, -1, -1)
        state, tape = cell.zero_state(1), []
        for t in steps:
            state, cache = _reference_step(cell, x[row : row + 1, t], state)
            out[row, t] = state[0][0]
            tape.append((t, cache))
        last[row] = state[0][0]
        dstate = (r_last[row : row + 1],) + tuple(np.zeros_like(s) for s in state[1:])
        for t, cache in reversed(tape):
            dstate = (dstate[0] + r_out[row : row + 1, t],) + dstate[1:]
            dx, dstate, step_grads = _reference_step_backward(cell, cache, dstate)
            gx[row, t] = dx[0]
            for acc, g in zip(grads, step_grads):
                acc += g
    return out, last, grads, gx


class TestUnroll:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_matches_loop_over_cell_references(self, kind, direction, rng):
        cell = _random_cell(kind, 3, 4, rng)
        lengths = [7, 3, 5, 1]
        x = rng.normal(size=(4, 7, 3))
        r_out = rng.normal(size=(4, 7, 4))
        r_last = rng.normal(size=(4, 4))
        ref = _reference_unroll(cell, x, lengths, direction, r_out, r_last)
        batch = SequenceBatch(x, lengths)
        if direction == "forward":
            out, last, cache = unroll(cell, batch)
            grads, gx = unroll_backward(cell, cache, r_out, r_last)
        else:
            out, last, grads, gx = _backward_half(cell, batch, r_out, r_last)
        ref_out, ref_last, ref_grads, ref_gx = ref
        for got, want in zip([out, last, gx] + grads, [ref_out, ref_last, ref_gx] + ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_length_one_sequence_is_a_single_cell_application(self, kind, rng):
        cell = _random_biased_cell(kind, 3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        batch = SequenceBatch(x, [1, 1])
        outputs, last, _ = unroll(cell, batch)
        h1, _ = step(cell, x[:, 0, :], cell.zero_state(2))
        assert np.array_equal(outputs[:, 0, :], h1)
        assert np.array_equal(last, h1)
        assert np.array_equal(outputs[:, 1:, :], np.zeros((2, 4, 4)))

    def test_a_positional_third_argument_is_rejected(self, rng):
        # train is keyword-only: a direction passed where one used to go
        # would otherwise bind to train and run forward
        cell = _random_cell("gru", 3, 4, rng)
        with pytest.raises(TypeError):
            unroll(cell, SequenceBatch(rng.normal(size=(2, 3, 3)), [3, 2]), "backward")

    def test_zero_weights_zero_input_zero_output(self):
        cell = RnnCell(W=np.zeros((2, 5)), b=np.zeros(2))
        batch = SequenceBatch(np.zeros((3, 4, 3)), [4, 2, 3])
        outputs, last, _ = unroll(cell, batch)
        assert not outputs.any() and not last.any()

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_backward_direction_equals_forward_on_reversed_input(self, kind, rng):
        cell = _random_cell(kind, 3, 4, rng)
        x = rng.normal(size=(3, 6, 3))
        lengths = [6, 4, 5]
        for row, L in enumerate(lengths):
            x[row, L:, :] = 0.0
        out_bi, last_bi, _ = unroll(BidirectionalLayer(cell, cell), SequenceBatch(x, lengths))
        out_bwd, last_bwd = out_bi[..., 4:], last_bi[:, 4:]  # the backward half
        x_rev = np.zeros_like(x)
        for row, L in enumerate(lengths):
            x_rev[row, :L, :] = x[row, :L, :][::-1]
        out_fwd, last_fwd, _ = unroll(cell, SequenceBatch(x_rev, lengths))
        # The two unrolls feed the same rows to their GEMMs in different
        # orders, and BLAS may round a row differently by its position, so
        # bit equality is not owed. The outputs are bounded by 1 in
        # magnitude: 1e-15 is a few units in the last place.
        for row, L in enumerate(lengths):
            assert np.abs(out_bwd[row, :L, :] - out_fwd[row, :L, :][::-1]).max() <= 1e-15
        assert np.abs(last_bwd - last_fwd).max() <= 1e-15

    # Width 32 is where OpenBLAS rounds a GEMM row differently once the row
    # count grows, so an input projection over padded rows would show there.
    @pytest.mark.parametrize("kind,lengths,bidirectional,i", [
        pytest.param("rnn", [4, 3], False, 2, id="rnn"),
        pytest.param("lstm", [4, 3], False, 2, id="lstm"),
        pytest.param("gru", [4, 3], False, 2, id="gru"),
        pytest.param("rnn", [2, 4, 1, 3], True, 32, id="rnn-batch-bidirectional"),
        pytest.param("lstm", [2, 4, 1, 3], True, 32, id="lstm-batch-bidirectional"),
        pytest.param("gru", [2, 4, 1, 3], True, 32, id="gru-batch-bidirectional"),
        pytest.param("gru", [2, 4, 1, 3], False, 32, id="gru-batch-forward"),
    ])
    def test_padding_invariance_forward_and_backward(self, kind, lengths, bidirectional, i, rng):
        n = len(lengths)
        cell = _random_cell(kind, i, 3, rng)
        if bidirectional:  # the backward half reads each row from its own last true step
            cell = BidirectionalLayer(cell, _random_cell(kind, i, 3, rng))
        x = rng.normal(size=(n, 4, i))
        for row, L in enumerate(lengths):
            x[row, L:, :] = 0.0
        batch = SequenceBatch(x, lengths)
        out_a, last_a, cache_a = unroll(cell, batch)
        x_padded = np.concatenate([x, np.zeros((n, 37, i))], axis=1)
        padded = SequenceBatch(x_padded, lengths)
        out_b, last_b, cache_b = unroll(cell, padded)
        assert np.array_equal(out_a, out_b[:, :4, :])
        assert not out_b[:, 4:, :].any()
        assert np.array_equal(last_a, last_b)
        grad_out = rng.normal(size=out_a.shape)
        grad_out_padded = np.concatenate([grad_out, rng.normal(size=(n, 37, out_a.shape[2]))], axis=1)
        grad_last = rng.normal(size=last_a.shape)
        grads_a, gx_a = unroll_backward(cell, cache_a, grad_out, grad_last)
        grads_b, gx_b = unroll_backward(cell, cache_b, grad_out_padded, grad_last)
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)
        assert np.array_equal(gx_a, gx_b[:, :4, :])
        assert not gx_b[:, 4:, :].any()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rnn", "lstm", "gru"]),
        layout=st.sampled_from(["forward", "bidirectional"]),
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=9),
        extra=st.integers(0, 40),
        i=st.sampled_from([3, 32]),
        seed=st.integers(0, 2**16),
    )
    def test_padding_invariance_property(self, kind, layout, lengths, extra, i, seed):
        rng = Rng(seed)
        d = 4
        w = 2 * d if layout == "bidirectional" else d
        cell = _random_biased_cell(kind, i, d, rng)
        if layout == "bidirectional":
            cell = BidirectionalLayer(cell, _random_biased_cell(kind, i, d, rng))
        n, T = len(lengths), max(lengths)
        x = _padded_rows_zeroed(rng.normal(size=(n, T, i)), lengths)
        x_padded = np.concatenate([x, np.zeros((n, extra, i))], axis=1)
        out_a, last_a, cache_a = unroll(cell, SequenceBatch(x, lengths))
        out_b, last_b, cache_b = unroll(cell, SequenceBatch(x_padded, lengths))
        assert np.array_equal(out_a, out_b[:, :T])
        assert np.array_equal(out_a, _padded_rows_zeroed(out_a, lengths))
        assert not out_b[:, T:].any()
        assert np.array_equal(last_a, last_b)
        grad_out = rng.normal(size=(n, T, w))
        grad_out_padded = np.concatenate([grad_out, rng.normal(size=(n, extra, w))], axis=1)
        grad_last = rng.normal(size=(n, w))
        grads_a, gx_a = unroll_backward(cell, cache_a, grad_out, grad_last)
        grads_b, gx_b = unroll_backward(cell, cache_b, grad_out_padded, grad_last)
        assert len(grads_a) == len(grads_b) == len(cell.param_arrays())
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)
        assert np.array_equal(gx_a, gx_b[:, :T])
        assert np.array_equal(gx_a, _padded_rows_zeroed(gx_a, lengths))
        assert not gx_b[:, T:].any()


class TestBidirectional:
    def test_palindrome_with_shared_weights_gives_symmetric_last_state(self, rng):
        cell = _random_cell("gru", 2, 3, rng)
        half = rng.normal(size=(1, 3, 2))
        x = np.concatenate([half, half[:, ::-1, :]], axis=1)  # palindrome, T=6
        batch = SequenceBatch(x, [6])
        _, last, _ = unroll(BidirectionalLayer(cell, cell), batch)
        assert np.abs(last[:, :3] - last[:, 3:]).max() <= 1e-12

    def test_output_width_doubles(self, rng):
        cf = _random_cell("gru", 5, 300, rng)
        cb = _random_cell("gru", 5, 300, rng)
        batch = SequenceBatch(rng.normal(size=(2, 4, 5)), [4, 4])
        outputs, last, _ = unroll(BidirectionalLayer(cf, cb), batch)
        assert outputs.shape == (2, 4, 600)
        assert last.shape == (2, 600)

    def test_zero_weight_cells_zero_output(self):
        cf = RnnCell(W=np.zeros((2, 4)), b=np.zeros(2))
        cb = RnnCell(W=np.zeros((2, 4)), b=np.zeros(2))
        batch = SequenceBatch(np.random.rand(2, 3, 2), [3, 2])
        outputs, last, _ = unroll(BidirectionalLayer(cf, cb), batch)
        assert not outputs.any() and not last.any()

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError, match="3 vs 4"):
            BidirectionalLayer(_random_cell("gru", 2, 3, rng), _random_cell("gru", 2, 4, rng))

    @pytest.mark.parametrize("kinds", [("gru", "lstm")])
    def test_cells_of_different_kinds_rejected(self, kinds, rng):
        # one time loop runs both directions with one cell's step code
        with pytest.raises(ConfigError, match="differ in kind"):
            BidirectionalLayer(_random_cell(kinds[0], 2, 3, rng), _random_cell(kinds[1], 2, 3, rng))

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_forward_half_equals_a_lone_unroll_and_backward_half_ignores_its_partner(self, kind, rng):
        n, T, i, d = 6, 9, 32, 16
        cf, cb = _random_biased_cell(kind, i, d, rng), _random_biased_cell(kind, i, d, rng)
        lengths = [9, 1, 4, 9, 6, 1]
        batch = SequenceBatch(_padded_rows_zeroed(rng.normal(size=(n, T, i)), lengths), lengths)
        r_out = rng.normal(size=(n, T, 2 * d))
        r_last = rng.normal(size=(n, 2 * d))
        layer = BidirectionalLayer(cf, cb)
        out, last, cache = unroll(layer, batch)
        grads, gx = unroll_backward(layer, cache, r_out, r_last)
        out_f, last_f, cache_f = unroll(cf, batch)
        grads_f, gx_f = unroll_backward(cf, cache_f, r_out[:, :, :d], r_last[:, :d])
        # cb beside another forward cell, cb itself, that gets no gradient
        out_b, last_b, grads_b, gx_b = _backward_half(cb, batch, r_out[:, :, d:], r_last[:, d:])
        assert np.array_equal(out, np.concatenate([out_f, out_b], axis=2))
        assert np.array_equal(last, np.concatenate([last_f, last_b], axis=1))
        assert len(grads) == len(grads_f + grads_b)
        for got, want in zip(grads, grads_f + grads_b):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(gx, gx_f + gx_b)


class TestStack:
    def test_single_layer_stack_equals_unroll(self, rng):
        cell = _random_cell("lstm", 3, 4, rng)
        batch = SequenceBatch(rng.normal(size=(2, 5, 3)), [5, 3])
        outputs, last, _ = stack([cell], batch)
        ref_out, ref_last, _ = unroll(cell, batch)
        assert np.array_equal(outputs[-1], ref_out)
        assert np.array_equal(last, ref_last)

    def test_two_layer_scalar_oracle(self):
        # n=1, T=3, all dims 1: run the exact recurrence by hand in scalars.
        rng = Rng(3)
        l1 = _random_cell("gru", 1, 1, rng)
        l2 = _random_cell("gru", 1, 1, rng)
        for cell in (l1, l2):
            cell.b_gates[...] = rng.normal(0.0, 0.2, size=2)
            cell.b_cand[...] = rng.normal(0.0, 0.2, size=1)
        x = rng.normal(size=(1, 3, 1))
        outputs, last, _ = stack([l1, l2], SequenceBatch(x, [3]))
        h1 = h2 = 0.0
        mids, refs = [], []
        for t in range(3):
            h1 = scalar_gru_step(
                l1.W_gates.tolist(), l1.W_cand.tolist(),
                l1.b_gates.tolist(), l1.b_cand.tolist(), [x[0, t, 0]], [h1],
            )[0]
            mids.append(h1)
            h2 = scalar_gru_step(
                l2.W_gates.tolist(), l2.W_cand.tolist(),
                l2.b_gates.tolist(), l2.b_cand.tolist(), [h1], [h2],
            )[0]
            refs.append(h2)
        assert np.abs(outputs[0][0, :, 0] - np.array(mids)).max() <= 1e-12
        assert np.abs(outputs[1][0, :, 0] - np.array(refs)).max() <= 1e-12
        assert last[0, 0] == pytest.approx(refs[-1], abs=1e-12)

    def test_two_layer_bidirectional_width(self, rng):
        l1 = BidirectionalLayer(_random_cell("gru", 4, 300, rng), _random_cell("gru", 4, 300, rng))
        l2 = BidirectionalLayer(_random_cell("gru", 600, 300, rng), _random_cell("gru", 600, 300, rng))
        batch = SequenceBatch(rng.normal(size=(1, 3, 4)), [3])
        outputs, last, _ = stack([l1, l2], batch)
        assert outputs[-1].shape == (1, 3, 600)
        assert last.shape == (1, 600)

    def test_dimension_chain_mismatch_rejected(self, rng):
        cell = _random_cell("gru", 3, 4, rng)
        l2 = _random_cell("gru", 5, 2, rng)
        # a BidirectionalLayer's out_dim is 8, twice its cells' width
        for l1 in (cell, BidirectionalLayer(cell, _random_cell("gru", 3, 4, rng))):
            with pytest.raises(DimensionError, match=f"layer 1 expects width 5, got {l1.out_dim}"):
                stack([l1, l2], SequenceBatch(np.zeros((1, 2, 3)), [2]))


# ---------------------------------------------------------------------------
# Backpropagation through time vs central finite differences
# ---------------------------------------------------------------------------


class TestBpttGradients:
    def test_zero_upstream_gradient_gives_zero_grads(self, rng):
        cell = _random_cell("gru", 2, 3, rng)
        batch = SequenceBatch(rng.normal(size=(2, 4, 2)), [4, 2])
        _, _, cache = unroll(cell, batch)
        grads, gx = unroll_backward(cell, cache, None, None)
        assert all(not g.any() for g in grads)
        assert not gx.any()

    @pytest.mark.parametrize("kind,n,t,i,d", [
        ("rnn", 2, 4, 3, 4),
        ("rnn", 3, 5, 2, 2),
        ("lstm", 2, 4, 3, 4),
        ("lstm", 3, 5, 4, 3),
        ("gru", 2, 4, 3, 4),
        ("gru", 3, 5, 2, 3),
    ])
    def test_unroll_gradients_match_finite_differences(self, kind, n, t, i, d):
        rng = Rng(hash((kind, n, t, i, d)) % 2**31)
        cell = _random_cell(kind, i, d, rng)
        x = rng.normal(0.0, 0.8, size=(n, t, i))
        lengths = [t - (row % 2) for row in range(n)]
        for row, L in enumerate(lengths):
            x[row, L:, :] = 0.0
        r_out = rng.normal(size=(n, t, d))
        r_last = rng.normal(size=(n, d))

        def loss():
            out, last, _ = unroll(cell, SequenceBatch(x, lengths))
            return float((out * r_out).sum() + (last * r_last).sum())

        _, _, cache = unroll(cell, SequenceBatch(x, lengths))
        pgrads, gx = unroll_backward(cell, cache, r_out, r_last)
        numeric = central_diff(loss, cell.param_arrays() + [x])
        assert max_rel_err(pgrads + [gx], numeric) <= 1e-4

    def test_bidirectional_gradients_match_finite_differences(self):
        rng = Rng(11)
        cf = _random_cell("gru", 3, 3, rng)
        cb = _random_cell("gru", 3, 3, rng)
        x = rng.normal(0.0, 0.8, size=(2, 4, 3))
        lengths = [4, 3]
        x[1, 3:, :] = 0.0
        r_last = rng.normal(size=(2, 6))
        layer = BidirectionalLayer(cf, cb)

        def loss():
            _, last, _ = unroll(layer, SequenceBatch(x, lengths))
            return float((last * r_last).sum())

        _, _, cache = unroll(layer, SequenceBatch(x, lengths))
        pgrads, gx = unroll_backward(layer, cache, None, r_last)
        numeric = central_diff(loss, cf.param_arrays() + cb.param_arrays() + [x])
        assert max_rel_err(pgrads + [gx], numeric) <= 1e-4

    def test_stack_gradients_match_finite_differences(self):
        rng = Rng(13)
        layers = [_random_cell("lstm", 2, 3, rng), _random_cell("gru", 3, 2, rng)]
        x = rng.normal(0.0, 0.8, size=(2, 4, 2))
        lengths = [4, 3]
        x[1, 3:, :] = 0.0
        r_last = rng.normal(size=(2, 2))
        arrays = [a for L in layers for a in L.param_arrays()] + [x]

        def loss():
            _, last, _ = stack(layers, SequenceBatch(x, lengths))
            return float((last * r_last).sum())

        _, _, caches = stack(layers, SequenceBatch(x, lengths))
        gseq, per_layer = stack_backward(layers, caches, None, r_last)
        analytic = [g for pg in per_layer for g in pg] + [gseq]
        assert max_rel_err(analytic, central_diff(loss, arrays)) <= 1e-4

    @pytest.mark.parametrize("bottom", ["rnn", "lstm", "gru", "bi_gru"])
    def test_skipped_input_gradient_keeps_every_other_gradient_bit_for_bit(self, bottom, rng):
        if bottom == "bi_gru":
            first = BidirectionalLayer(_random_cell("gru", 3, 2, rng), _random_cell("gru", 3, 2, rng))
        else:
            first = _random_cell(bottom, 3, 4, rng)
        layers = [first, _random_cell("gru", first.out_dim, 3, rng)]
        batch = SequenceBatch(_padded_rows_zeroed(rng.normal(size=(3, 5, 3)), [5, 2, 4]), [5, 2, 4])
        r_last = rng.normal(size=(3, 3))
        runs = []
        for input_grad in (True, False):
            _, _, caches = stack(layers, batch)
            runs.append(stack_backward(layers, caches, None, r_last, input_grad=input_grad))
        (gseq, per_layer), (skipped, per_layer_skipped) = runs
        assert gseq.shape == batch.data.shape and skipped is None
        for grads, grads_skipped in zip(per_layer, per_layer_skipped):
            assert all(np.array_equal(a, b) for a, b in zip(grads, grads_skipped, strict=True))
        _, _, cache = unroll(first, batch)
        pgrads, gx = unroll_backward(first, cache, None, rng.normal(size=(3, first.out_dim)), input_grad=False)
        assert gx is None and len(pgrads) == len(first.param_arrays())

    def test_second_backward_on_one_cache_rejected(self, rng):
        # the first backward frees the forward's per-step tape
        layer = BidirectionalLayer(_random_cell("gru", 2, 3, rng), _random_cell("gru", 2, 3, rng))
        _, last, cache = unroll(layer, SequenceBatch(rng.normal(size=(2, 4, 2)), [4, 2]))
        unroll_backward(layer, cache, None, np.ones_like(last))
        with pytest.raises(ContractError, match="already ran on this cache"):
            unroll_backward(layer, cache, None, np.ones_like(last))

    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_inference_unroll_keeps_no_tape_and_equals_train_outputs(self, kind, bidirectional, rng):
        # inference reuses one tape slot; the forward direction also freezes rows
        cell = _random_cell(kind, 3, 4, rng)
        if bidirectional:
            cell = BidirectionalLayer(cell, _random_cell(kind, 3, 4, rng))
        batch = SequenceBatch(rng.normal(size=(3, 6, 3)), [6, 2, 4])
        out_t, last_t, cache_t = unroll(cell, batch)
        out_i, last_i, cache_i = unroll(cell, batch, train=False)
        assert cache_t is not None and cache_i is None
        assert np.array_equal(out_i, out_t) and np.array_equal(last_i, last_t)
        with pytest.raises(ContractError, match="train=False"):
            unroll_backward(cell, cache_i, None, np.ones_like(last_i))

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru", "bi_lstm"])
    def test_unroll_and_backward_leave_the_weights_unchanged(self, kind, rng):
        # the forward loop halves the sigmoid columns in copies, never in params
        if kind == "bi_lstm":
            layer = BidirectionalLayer(_random_biased_cell("lstm", 3, 4, rng), _random_biased_cell("lstm", 3, 4, rng))
        else:
            layer = _random_biased_cell(kind, 3, 4, rng)
        arrays = layer.param_arrays()
        before = [a.copy() for a in arrays]
        batch = SequenceBatch(_padded_rows_zeroed(rng.normal(size=(3, 5, 3)), [5, 2, 4]), [5, 2, 4])
        out, last, cache = unroll(layer, batch)
        unroll_backward(layer, cache, np.ones_like(out), np.ones_like(last))
        unroll(layer, batch, train=False)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    def test_inference_stack_returns_no_caches(self, rng):
        layers = [
            BidirectionalLayer(_random_cell("gru", 3, 2, rng), _random_cell("gru", 3, 2, rng)),
            _random_cell("lstm", 4, 3, rng),
        ]
        batch = SequenceBatch(rng.normal(size=(2, 5, 3)), [5, 3])
        outs_t, last_t, _ = stack(layers, batch)
        outs_i, last_i, caches = stack(layers, batch, train=False)
        assert caches == [None, None]
        assert np.array_equal(last_i, last_t)
        assert all(np.array_equal(a, b) for a, b in zip(outs_i, outs_t))

    def test_gru_with_update_gate_forced_open_has_zero_candidate_gradient(self, rng):
        d, i = 3, 2
        cell = GruCell(
            W_gates=np.zeros((2 * d, i + d)),
            W_cand=rng.normal(size=(d, i + d)),
            b_gates=np.zeros(2 * d),
            b_cand=np.zeros(d),
        )
        cell.b_gates[:d] = 50.0  # z == 1 at every step: candidate never used
        batch = SequenceBatch(rng.normal(size=(2, 5, i)), [5, 4])
        _, _, cache = unroll(cell, batch)
        grads, _ = unroll_backward(cell, cache, None, rng.normal(size=(2, d)))
        w_cand_grad = grads[1]
        assert np.abs(w_cand_grad).max() <= 1e-12
