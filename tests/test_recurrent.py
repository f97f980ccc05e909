import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostream import (
    BidirectionalLayer,
    ConfigError,
    ContractError,
    DimensionError,
    GruCell,
    GruCellParams,
    LstmCell,
    LstmCellParams,
    RecurrentLayer,
    RnnCell,
    RnnCellParams,
    Rng,
    SequenceBatch,
    init_gru_cell,
    init_lstm_cell,
    init_rnn_cell,
    param_count,
    sigmoid,
    stack,
    unroll,
)
from twostream.recurrent import stack_backward, unroll_backward

from conftest import central_diff, max_rel_err


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
    pre = xh @ p.W.T + p.b
    h_t = np.tanh(pre) if p.activation == "tanh" else sigmoid(pre)
    return h_t, (xh, h_t)


def rnn_step_reference_backward(p, cache, dh):
    xh, h_t = cache
    if p.activation == "tanh":
        dpre = dh * (1.0 - h_t * h_t)
    else:
        dpre = dh * h_t * (1.0 - h_t)
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
        p = RnnCellParams(W=np.zeros((3, 5)), b=np.zeros(3), activation="tanh")
        h, _ = RnnCell(p).step(np.random.rand(4, 2), (np.random.rand(4, 3),))
        assert np.array_equal(h, np.zeros((4, 3)))

    def test_scalar_hand_evaluation(self):
        p = RnnCellParams(W=np.array([[1.0, 0.0]]), b=np.zeros(1), activation="tanh")
        h, _ = RnnCell(p).step(np.array([[0.5]]), (np.array([[0.0]]),))
        assert h[0, 0] == pytest.approx(0.46211715726, abs=1e-9)

    def test_sigmoid_saturates_on_large_recurrent_weight(self):
        p = RnnCellParams(W=np.array([[0.0, 50.0]]), b=np.zeros(1), activation="sigmoid")
        h, _ = RnnCell(p).step(np.array([[0.3]]), (np.array([[1.0]]),))
        assert h[0, 0] > 1.0 - 1e-12

    def test_shape_mismatch_rejected(self, rng):
        cell = RnnCell(init_rnn_cell(3, 4, rng))
        with pytest.raises(DimensionError, match="input_dim 3"):
            cell.step(np.zeros((2, 5)), (np.zeros((2, 4)),))
        with pytest.raises(DimensionError, match=r"\(n=2, d=4\)"):
            cell.step(np.zeros((2, 3)), (np.zeros((3, 4)),))


class TestLstmCell:
    def test_memory_keep_identity(self, rng):
        # forget gate forced open, input gate forced closed
        d = 4
        p = LstmCellParams(W=np.zeros((4 * d, 3 + d)), b=np.zeros(4 * d))
        p.b[:d] = -50.0  # input gate shut
        p.b[d : 2 * d] = 50.0  # forget gate open
        c_prev = rng.normal(size=(5, d))
        _, (_, c_t) = LstmCell(p).step(rng.normal(size=(5, 3)), (rng.normal(size=(5, d)), c_prev))
        assert np.abs(c_t - c_prev).max() <= 1e-12

    def test_closed_output_gate_zeroes_state(self, rng):
        d = 3
        p = LstmCellParams(W=np.zeros((4 * d, 2 + d)), b=np.zeros(4 * d))
        p.b[2 * d : 3 * d] = -50.0
        h_t, _ = LstmCell(p).step(rng.normal(size=(4, 2)), (rng.normal(size=(4, d)), rng.normal(size=(4, d))))
        assert np.abs(h_t).max() <= 1e-12

    def test_cell_state_shape_mismatch_rejected(self, rng):
        cell = LstmCell(init_lstm_cell(3, 4, rng))
        with pytest.raises(DimensionError, match="c_prev shape"):
            cell.step(np.zeros((2, 3)), (np.zeros((2, 4)), np.zeros((2, 5))))

    def test_matches_scalar_oracle(self):
        rng = Rng(7)
        n, i, d = 2, 3, 4
        p = init_lstm_cell(i, d, rng)
        p.W[...] = rng.normal(0.0, 0.5, size=p.W.shape)
        p.b[...] = rng.normal(0.0, 0.5, size=p.b.shape)
        x = rng.normal(size=(n, i))
        h0 = rng.normal(size=(n, d))
        c0 = rng.normal(size=(n, d))
        h1, (_, c1) = LstmCell(p).step(x, (h0, c0))
        for row in range(n):
            h_ref, c_ref = scalar_lstm_step(
                p.W.tolist(), p.b.tolist(), x[row].tolist(), h0[row].tolist(), c0[row].tolist()
            )
            assert np.abs(h1[row] - np.array(h_ref)).max() <= 1e-12
            assert np.abs(c1[row] - np.array(c_ref)).max() <= 1e-12


class TestGruCell:
    def test_update_gate_open_passes_state_through(self, rng):
        d = 4
        p = GruCellParams(
            W_gates=np.zeros((2 * d, 3 + d)),
            W_cand=rng.normal(size=(d, 3 + d)),
            b_gates=np.zeros(2 * d),
            b_cand=rng.normal(size=d),
        )
        p.b_gates[:d] = 50.0  # z -> 1
        h_prev = rng.normal(size=(6, d))
        h_t, _ = GruCell(p).step(rng.normal(size=(6, 3)), (h_prev,))
        assert np.abs(h_t - h_prev).max() <= 1e-12

    def test_both_gates_closed_reduces_to_candidate_of_input_only(self, rng):
        d, i = 3, 2
        p = GruCellParams(
            W_gates=np.zeros((2 * d, i + d)),
            W_cand=rng.normal(size=(d, i + d)),
            b_gates=np.full(2 * d, -50.0),  # z -> 0, r -> 0
            b_cand=rng.normal(size=d),
        )
        x = rng.normal(size=(5, i))
        h_t, _ = GruCell(p).step(x, (rng.normal(size=(5, d)),))
        expected = np.tanh(
            np.concatenate([x, np.zeros((5, d))], axis=1) @ p.W_cand.T + p.b_cand
        )
        assert np.abs(h_t - expected).max() <= 1e-10

    def test_matches_scalar_oracle(self):
        rng = Rng(7)
        n, i, d = 2, 3, 4
        p = init_gru_cell(i, d, rng)
        p.b_gates[...] = rng.normal(0.0, 0.3, size=p.b_gates.shape)
        p.b_cand[...] = rng.normal(0.0, 0.3, size=p.b_cand.shape)
        x = rng.normal(size=(n, i))
        h0 = rng.normal(size=(n, d))
        h1, _ = GruCell(p).step(x, (h0,))
        for row in range(n):
            ref = scalar_gru_step(
                p.W_gates.tolist(),
                p.W_cand.tolist(),
                p.b_gates.tolist(),
                p.b_cand.tolist(),
                x[row].tolist(),
                h0[row].tolist(),
            )
            assert np.abs(h1[row] - np.array(ref)).max() <= 1e-12

    def test_gate_identities_hold_for_many_random_states(self, rng):
        d = 3
        p = GruCellParams(
            W_gates=np.zeros((2 * d, 2 + d)),
            W_cand=rng.normal(size=(d, 2 + d)),
            b_gates=np.zeros(2 * d),
            b_cand=np.zeros(d),
        )
        p.b_gates[:d] = 50.0
        for _ in range(25):
            h_prev = rng.normal(0.0, 2.0, size=(3, d))
            h_t, _ = GruCell(p).step(rng.normal(size=(3, 2)), (h_prev,))
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
        return RnnCell(init_rnn_cell(i, d, rng))
    if kind == "rnn_sigmoid":
        return RnnCell(init_rnn_cell(i, d, rng, activation="sigmoid"))
    if kind == "lstm":
        return LstmCell(init_lstm_cell(i, d, rng))
    return GruCell(init_gru_cell(i, d, rng))


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
    p = cell.params
    if isinstance(cell, LstmCell):
        h, c, cache = lstm_step_reference(p, x_t, state[0], state[1])
        return (h, c), cache
    if isinstance(cell, GruCell):
        h, cache = gru_step_reference(p, x_t, state[0])
        return (h,), cache
    h, cache = rnn_step_reference(p, x_t, state[0])
    return (h,), cache


def _reference_step_backward(cell, cache, dstate):
    p = cell.params
    if isinstance(cell, LstmCell):
        dx, dh, dc, grads = lstm_step_reference_backward(p, cache, dstate[0], dstate[1])
        return dx, (dh, dc), grads
    backward = gru_step_reference_backward if isinstance(cell, GruCell) else rnn_step_reference_backward
    dx, dh, grads = backward(p, cache, dstate[0])
    return dx, (dh,), grads


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


class TestSequenceBatch:
    @pytest.mark.parametrize("rows", [slice(1, 4), np.array([4, 0, 2])], ids=["slice", "index_array"])
    def test_indexing_keeps_each_row_with_its_own_length(self, rows, rng):
        lengths = [5, 2, 4, 1, 3]
        batch = SequenceBatch(_padded_rows_zeroed(rng.normal(size=(5, 5, 2)), lengths), lengths)
        picked = batch[rows]
        assert isinstance(picked, SequenceBatch)
        assert len(picked) == len(np.arange(5)[rows])
        assert picked.lengths == [lengths[r] for r in np.arange(5)[rows]]
        assert np.array_equal(picked.data, batch.data[rows])


class TestUnroll:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("kind", ["rnn", "rnn_sigmoid", "lstm", "gru"])
    def test_matches_loop_over_cell_references(self, kind, direction, rng):
        cell = _random_cell(kind, 3, 4, rng)
        lengths = [7, 3, 5, 1]
        x = rng.normal(size=(4, 7, 3))
        r_out = rng.normal(size=(4, 7, 4))
        r_last = rng.normal(size=(4, 4))
        ref = _reference_unroll(cell, x, lengths, direction, r_out, r_last)
        out, last, cache = unroll(cell, SequenceBatch(x, lengths), direction)
        grads, gx = unroll_backward(cell, cache, r_out, r_last)
        ref_out, ref_last, ref_grads, ref_gx = ref
        for got, want in zip([out, last, gx] + grads, [ref_out, ref_last, ref_gx] + ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["rnn", "rnn_sigmoid", "lstm", "gru"])
    def test_length_one_sequence_is_a_single_cell_application(self, kind, rng):
        cell = _random_biased_cell(kind, 3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        batch = SequenceBatch(x, [1, 1])
        outputs, last, _ = unroll(cell, batch)
        h1, _ = cell.step(x[:, 0, :], cell.zero_state(2))
        assert np.array_equal(outputs[:, 0, :], h1)
        assert np.array_equal(last, h1)
        assert np.array_equal(outputs[:, 1:, :], np.zeros((2, 4, 4)))

    def test_zero_weights_zero_input_zero_output(self):
        cell = RnnCell(RnnCellParams(W=np.zeros((2, 5)), b=np.zeros(2)))
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
        batch = SequenceBatch(x, lengths)
        out_bwd, last_bwd, _ = unroll(cell, batch, "backward")
        x_rev = np.zeros_like(x)
        for row, L in enumerate(lengths):
            x_rev[row, :L, :] = x[row, :L, :][::-1]
        out_fwd, last_fwd, _ = unroll(cell, SequenceBatch(x_rev, lengths), "forward")
        # The two unrolls feed the same rows to their GEMMs in different
        # orders, and BLAS may round a row differently by its position, so
        # bit equality is not owed. The outputs are bounded by 1 in
        # magnitude: 1e-15 is a few units in the last place.
        for row, L in enumerate(lengths):
            assert np.abs(out_bwd[row, :L, :] - out_fwd[row, :L, :][::-1]).max() <= 1e-15
        assert np.abs(last_bwd - last_fwd).max() <= 1e-15

    # Width 32 is where OpenBLAS rounds a GEMM row differently once the row
    # count grows, so an input projection over padded rows would show there.
    @pytest.mark.parametrize("kind,lengths,direction,i", [
        pytest.param("rnn", [4, 3], "forward", 2, id="rnn"),
        pytest.param("lstm", [4, 3], "forward", 2, id="lstm"),
        pytest.param("gru", [4, 3], "forward", 2, id="gru"),
        pytest.param("rnn_sigmoid", [2, 4, 1, 3], "backward", 32, id="rnn_sigmoid-batch-backward"),
        pytest.param("lstm", [2, 4, 1, 3], "backward", 32, id="lstm-batch-backward"),
        pytest.param("gru", [2, 4, 1, 3], "backward", 32, id="gru-batch-backward"),
        pytest.param("gru", [2, 4, 1, 3], "forward", 32, id="gru-batch-forward"),
    ])
    def test_padding_invariance_forward_and_backward(self, kind, lengths, direction, i, rng):
        n = len(lengths)
        cell = _random_cell(kind, i, 3, rng)
        x = rng.normal(size=(n, 4, i))
        for row, L in enumerate(lengths):
            x[row, L:, :] = 0.0
        batch = SequenceBatch(x, lengths)
        out_a, last_a, cache_a = unroll(cell, batch, direction)
        x_padded = np.concatenate([x, np.zeros((n, 37, i))], axis=1)
        padded = SequenceBatch(x_padded, lengths)
        out_b, last_b, cache_b = unroll(cell, padded, direction)
        assert np.array_equal(out_a, out_b[:, :4, :])
        assert not out_b[:, 4:, :].any()
        assert np.array_equal(last_a, last_b)
        grad_out = rng.normal(size=out_a.shape)
        grad_out_padded = np.concatenate([grad_out, rng.normal(size=(n, 37, 3))], axis=1)
        grad_last = rng.normal(size=last_a.shape)
        grads_a, gx_a = unroll_backward(cell, cache_a, grad_out, grad_last)
        grads_b, gx_b = unroll_backward(cell, cache_b, grad_out_padded, grad_last)
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)
        assert np.array_equal(gx_a, gx_b[:, :4, :])
        assert not gx_b[:, 4:, :].any()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rnn", "rnn_sigmoid", "lstm", "gru"]),
        layout=st.sampled_from(["forward", "backward", "bidirectional"]),
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=9),
        extra=st.integers(0, 40),
        i=st.sampled_from([3, 32]),
        seed=st.integers(0, 2**16),
    )
    def test_padding_invariance_property(self, kind, layout, lengths, extra, i, seed):
        rng = Rng(seed)
        d = 4
        if layout == "bidirectional":
            layer = BidirectionalLayer(_random_biased_cell(kind, i, d, rng), _random_biased_cell(kind, i, d, rng))
        else:
            layer = RecurrentLayer(_random_biased_cell(kind, i, d, rng), layout)
        n, T, w = len(lengths), max(lengths), layer.out_dim
        x = _padded_rows_zeroed(rng.normal(size=(n, T, i)), lengths)
        x_padded = np.concatenate([x, np.zeros((n, extra, i))], axis=1)
        out_a, last_a, cache_a = layer.forward(SequenceBatch(x, lengths))
        out_b, last_b, cache_b = layer.forward(SequenceBatch(x_padded, lengths))
        assert np.array_equal(out_a, out_b[:, :T])
        assert np.array_equal(out_a, _padded_rows_zeroed(out_a, lengths))
        assert not out_b[:, T:].any()
        assert np.array_equal(last_a, last_b)
        grad_out = rng.normal(size=(n, T, w))
        grad_out_padded = np.concatenate([grad_out, rng.normal(size=(n, extra, w))], axis=1)
        grad_last = rng.normal(size=(n, w))
        gx_a, grads_a = layer.backward(cache_a, grad_out, grad_last)
        gx_b, grads_b = layer.backward(cache_b, grad_out_padded, grad_last)
        assert len(grads_a) == len(grads_b) == len(layer.param_items())
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
        _, last, _ = BidirectionalLayer(cell, cell).forward(batch)
        assert np.abs(last[:, :3] - last[:, 3:]).max() <= 1e-12

    def test_output_width_doubles(self, rng):
        cf = _random_cell("gru", 5, 300, rng)
        cb = _random_cell("gru", 5, 300, rng)
        batch = SequenceBatch(rng.normal(size=(2, 4, 5)), [4, 4])
        outputs, last, _ = BidirectionalLayer(cf, cb).forward(batch)
        assert outputs.shape == (2, 4, 600)
        assert last.shape == (2, 600)

    def test_zero_weight_cells_zero_output(self):
        cf = RnnCell(RnnCellParams(W=np.zeros((2, 4)), b=np.zeros(2)))
        cb = RnnCell(RnnCellParams(W=np.zeros((2, 4)), b=np.zeros(2)))
        batch = SequenceBatch(np.random.rand(2, 3, 2), [3, 2])
        outputs, last, _ = BidirectionalLayer(cf, cb).forward(batch)
        assert not outputs.any() and not last.any()

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError, match="3 vs 4"):
            BidirectionalLayer(_random_cell("gru", 2, 3, rng), _random_cell("gru", 2, 4, rng))

    @pytest.mark.parametrize("kinds", [("gru", "lstm"), ("rnn", "rnn_sigmoid")])
    def test_cells_of_different_kinds_rejected(self, kinds, rng):
        # one time loop runs both directions with one cell's step code
        with pytest.raises(ConfigError, match="differ in kind"):
            BidirectionalLayer(_random_cell(kinds[0], 2, 3, rng), _random_cell(kinds[1], 2, 3, rng))

    @pytest.mark.parametrize("kind", ["rnn", "rnn_sigmoid", "lstm", "gru"])
    def test_equals_two_single_direction_unrolls(self, kind, rng):
        n, T, i, d = 6, 9, 32, 16
        cf, cb = _random_biased_cell(kind, i, d, rng), _random_biased_cell(kind, i, d, rng)
        lengths = [9, 1, 4, 9, 6, 1]
        batch = SequenceBatch(_padded_rows_zeroed(rng.normal(size=(n, T, i)), lengths), lengths)
        r_out = rng.normal(size=(n, T, 2 * d))
        r_last = rng.normal(size=(n, 2 * d))
        layer = BidirectionalLayer(cf, cb)
        out, last, cache = layer.forward(batch)
        gx, grads = layer.backward(cache, r_out, r_last)
        out_f, last_f, cache_f = unroll(cf, batch, "forward")
        out_b, last_b, cache_b = unroll(cb, batch, "backward")
        grads_f, gx_f = unroll_backward(cf, cache_f, r_out[:, :, :d], r_last[:, :d])
        grads_b, gx_b = unroll_backward(cb, cache_b, r_out[:, :, d:], r_last[:, d:])
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
        outputs, last, _ = stack([RecurrentLayer(cell)], batch)
        ref_out, ref_last, _ = unroll(cell, batch)
        assert np.array_equal(outputs[-1], ref_out)
        assert np.array_equal(last, ref_last)

    def test_two_layer_scalar_oracle(self):
        # n=1, T=3, all dims 1: run the exact recurrence by hand in scalars.
        rng = Rng(3)
        l1 = _random_cell("gru", 1, 1, rng)
        l2 = _random_cell("gru", 1, 1, rng)
        for cell in (l1, l2):
            cell.params.b_gates[...] = rng.normal(0.0, 0.2, size=2)
            cell.params.b_cand[...] = rng.normal(0.0, 0.2, size=1)
        x = rng.normal(size=(1, 3, 1))
        outputs, last, _ = stack([RecurrentLayer(l1), RecurrentLayer(l2)], SequenceBatch(x, [3]))
        h1 = h2 = 0.0
        mids, refs = [], []
        for t in range(3):
            h1 = scalar_gru_step(
                l1.params.W_gates.tolist(), l1.params.W_cand.tolist(),
                l1.params.b_gates.tolist(), l1.params.b_cand.tolist(), [x[0, t, 0]], [h1],
            )[0]
            mids.append(h1)
            h2 = scalar_gru_step(
                l2.params.W_gates.tolist(), l2.params.W_cand.tolist(),
                l2.params.b_gates.tolist(), l2.params.b_cand.tolist(), [h1], [h2],
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
        l1 = RecurrentLayer(_random_cell("gru", 3, 4, rng))
        l2 = RecurrentLayer(_random_cell("gru", 5, 2, rng))
        with pytest.raises(DimensionError, match="layer 1"):
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
            _, last, _ = layer.forward(SequenceBatch(x, lengths))
            return float((last * r_last).sum())

        _, _, cache = layer.forward(SequenceBatch(x, lengths))
        gx, pgrads = layer.backward(cache, None, r_last)
        numeric = central_diff(loss, cf.param_arrays() + cb.param_arrays() + [x])
        assert max_rel_err(pgrads + [gx], numeric) <= 1e-4

    def test_stack_gradients_match_finite_differences(self):
        rng = Rng(13)
        layers = [
            RecurrentLayer(_random_cell("lstm", 2, 3, rng)),
            RecurrentLayer(_random_cell("gru", 3, 2, rng)),
        ]
        x = rng.normal(0.0, 0.8, size=(2, 4, 2))
        lengths = [4, 3]
        x[1, 3:, :] = 0.0
        r_last = rng.normal(size=(2, 2))
        arrays = [a for L in layers for _, a in L.param_items()] + [x]

        def loss():
            _, last, _ = stack(layers, SequenceBatch(x, lengths))
            return float((last * r_last).sum())

        _, _, caches = stack(layers, SequenceBatch(x, lengths))
        gseq, per_layer = stack_backward(layers, caches, None, r_last)
        analytic = [g for pg in per_layer for g in pg] + [gseq]
        assert max_rel_err(analytic, central_diff(loss, arrays)) <= 1e-4

    def test_second_backward_on_one_cache_rejected(self, rng):
        # the first backward frees the forward's per-step tape
        layer = BidirectionalLayer(_random_cell("gru", 2, 3, rng), _random_cell("gru", 2, 3, rng))
        _, last, cache = layer.forward(SequenceBatch(rng.normal(size=(2, 4, 2)), [4, 2]))
        layer.backward(cache, None, np.ones_like(last))
        with pytest.raises(ContractError, match="already ran on this cache"):
            layer.backward(cache, None, np.ones_like(last))

    @pytest.mark.parametrize("kind", ["rnn", "rnn_sigmoid", "lstm", "gru", "bi_gru"])
    def test_inference_unroll_keeps_no_tape_and_equals_train_outputs(self, kind, rng):
        if kind == "bi_gru":
            layer = BidirectionalLayer(_random_cell("gru", 3, 4, rng), _random_cell("gru", 3, 4, rng))
        else:
            layer = RecurrentLayer(_random_cell(kind, 3, 4, rng), "backward")
        batch = SequenceBatch(rng.normal(size=(3, 6, 3)), [6, 2, 4])
        out_t, last_t, cache_t = layer.forward(batch)
        out_i, last_i, cache_i = layer.forward(batch, train=False)
        assert cache_t is not None and cache_i is None
        assert np.array_equal(out_i, out_t) and np.array_equal(last_i, last_t)
        with pytest.raises(ContractError, match="train=False"):
            layer.backward(cache_i, None, np.ones_like(last_i))

    def test_inference_stack_returns_no_caches(self, rng):
        layers = [
            BidirectionalLayer(_random_cell("gru", 3, 2, rng), _random_cell("gru", 3, 2, rng)),
            RecurrentLayer(_random_cell("lstm", 4, 3, rng)),
        ]
        batch = SequenceBatch(rng.normal(size=(2, 5, 3)), [5, 3])
        outs_t, last_t, _ = stack(layers, batch)
        outs_i, last_i, caches = stack(layers, batch, train=False)
        assert caches == [None, None]
        assert np.array_equal(last_i, last_t)
        assert all(np.array_equal(a, b) for a, b in zip(outs_i, outs_t))

    def test_gru_with_update_gate_forced_open_has_zero_candidate_gradient(self, rng):
        d, i = 3, 2
        p = GruCellParams(
            W_gates=np.zeros((2 * d, i + d)),
            W_cand=rng.normal(size=(d, i + d)),
            b_gates=np.zeros(2 * d),
            b_cand=np.zeros(d),
        )
        p.b_gates[:d] = 50.0  # z == 1 at every step: candidate never used
        cell = GruCell(p)
        batch = SequenceBatch(rng.normal(size=(2, 5, i)), [5, 4])
        _, _, cache = unroll(cell, batch)
        grads, _ = unroll_backward(cell, cache, None, rng.normal(size=(2, d)))
        w_cand_grad = grads[1]
        assert np.abs(w_cand_grad).max() <= 1e-12
