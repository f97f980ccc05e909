"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Training-based criteria share one synthetic dataset, one split, and a cache of
trained models, all fully seeded, so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from twostream import (
    Conv3dParams,
    Pool3dSpec,
    Prediction,
    Rng,
    SplitSpec,
    SynthConfig,
    TrustWeights,
    conv3d_forward,
    decision_fuse,
    generate_synthetic,
    gradcheck_all,
    init_gru_cell,
    init_lstm_cell,
    make_splits,
    maxpool3d,
    param_count,
)
from twostream.heads import init_dense
from twostream.models import ModelSpec, build_model
from twostream.recurrent import GruCell, GruCellParams, LstmCell, LstmCellParams, SequenceBatch
from twostream.harness import (
    run_fusion,
    run_ladder,
    steps_to_threshold,
    train_variant,
)
from twostream.config import default_config
from twostream.parallel import ordered_map

from test_conv3d import naive_conv3d, naive_maxpool3d
from test_recurrent import scalar_gru_step, scalar_lstm_step

EPOCH_BUDGET = 100
LADDER_SEEDS = (0, 1, 2)
# Every (variant, seed) the criteria read, longest first, so that the
# interleaved shares `ordered_map` hands its workers take about equal time.
TRAINED_RUNS = (
    [("BI-GRU2-BN-DP-H", s) for s in LADDER_SEEDS]
    + [("C3D-DESK", 0)]
    + [("GRU1-BN-DP", s) for s in LADDER_SEEDS]
    + [("LSTM1-BN", 0)]
    + [(name, s) for name in ("LSTM1", "RNN1") for s in LADDER_SEEDS]
)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def task():
    dataset = generate_synthetic(SynthConfig(), Rng(0))
    splits = make_splits(dataset, SplitSpec("cross_subject"), Rng(0).derive(7))
    cfg = default_config()
    cfg["epochs"] = EPOCH_BUDGET

    def timed_training(run):
        tic = time.time()
        model, result = train_variant(run[0], dataset, splits, cfg, seed=run[1])
        return model, result, time.time() - tic

    cache = dict(zip(TRAINED_RUNS, ordered_map(timed_training, TRAINED_RUNS)))

    def trained(name, seed):
        """(model, RunResult) of one run, trained up front."""
        return cache[(name, seed)][:2]

    def train_seconds(name, seed):
        """Wall time that run took to train, in its own process."""
        return cache[(name, seed)][2]

    return dataset, splits, cfg, trained, train_seconds


def test_criterion_01_gradient_integrity():
    tic = time.time()
    rep = gradcheck_all()
    elapsed = time.time() - tic
    names = {e.name for e in rep.entries}
    required = {
        "rnn_tanh", "lstm", "gru", "bidirectional_gru", "stacked_gru",
        "batchnorm", "dense_relu", "softmax_xent", "conv3d", "maxpool3d",
        "svm_hinge",
    }
    worst = max(e.max_rel_error for e in rep.entries)
    ok = rep.passed and required <= names and elapsed < 60.0
    report(1, ok, f"{len(rep.entries)} layer types, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    worst_conv = worst_pool = 0.0
    for trial in range(100):
        rng = Rng(51_000 + trial)
        f, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ks = tuple(int(rng.integers(1, 4)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        extents = tuple(int(rng.integers(k, k + 3)) for k in ks)
        p = Conv3dParams(
            kernels=rng.normal(size=(f, c) + ks), bias=rng.normal(size=f), padding=pad
        )
        x = rng.normal(size=(2, c) + extents)
        y, _ = conv3d_forward(p, x)
        worst_conv = max(worst_conv, float(np.abs(y - naive_conv3d(p.kernels, p.bias, pad, x)).max()))

        window = tuple(int(rng.integers(1, 4)) for _ in range(3))
        pool_extents = tuple(int(rng.integers(w, w + 4)) for w in window)
        xp = rng.normal(size=(2, 2) + pool_extents)
        yp, _ = maxpool3d(Pool3dSpec(window), xp)
        worst_pool = max(worst_pool, float(np.abs(yp - naive_maxpool3d(window, xp)).max()))

    worst_cell = 0.0
    for trial in range(20):
        rng = Rng(52_000 + trial)
        lstm = init_lstm_cell(3, 4, rng)
        lstm.W[...] = rng.normal(0.0, 0.5, size=lstm.W.shape)
        lstm.b[...] = rng.normal(0.0, 0.5, size=lstm.b.shape)
        x = rng.normal(size=(2, 3))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        h1, (_, c1) = LstmCell(lstm).step(x, (h0, c0))
        for row in range(2):
            hr, cr = scalar_lstm_step(
                lstm.W.tolist(), lstm.b.tolist(), x[row].tolist(), h0[row].tolist(), c0[row].tolist()
            )
            worst_cell = max(worst_cell, float(np.abs(h1[row] - hr).max()),
                             float(np.abs(c1[row] - cr).max()))
        gru = init_gru_cell(3, 4, rng)
        gru.b_gates[...] = rng.normal(0.0, 0.3, size=gru.b_gates.shape)
        h1g, _ = GruCell(gru).step(x, (h0,))
        for row in range(2):
            ref = scalar_gru_step(
                gru.W_gates.tolist(), gru.W_cand.tolist(), gru.b_gates.tolist(),
                gru.b_cand.tolist(), x[row].tolist(), h0[row].tolist(),
            )
            worst_cell = max(worst_cell, float(np.abs(h1g[row] - ref).max()))

    ok = worst_conv <= 1e-10 and worst_pool <= 1e-10 and worst_cell <= 1e-12
    report(2, ok, f"conv {worst_conv:.1e}, pool {worst_pool:.1e} (100 instances each), "
                  f"cells {worst_cell:.1e} (20 instances)")


def test_criterion_03_gate_identities():
    rng = Rng(7)
    d = 4
    worst = 0.0
    for _ in range(25):
        lstm = LstmCellParams(W=np.zeros((4 * d, 3 + d)), b=np.zeros(4 * d))
        lstm.b[:d] = -50.0
        lstm.b[d : 2 * d] = 50.0
        c_prev = rng.normal(0.0, 2.0, size=(4, d))
        _, (_, c_t) = LstmCell(lstm).step(rng.normal(size=(4, 3)), (rng.normal(size=(4, d)), c_prev))
        worst = max(worst, float(np.abs(c_t - c_prev).max()))

        gru = GruCellParams(
            W_gates=np.zeros((2 * d, 3 + d)),
            W_cand=rng.normal(size=(d, 3 + d)),
            b_gates=np.zeros(2 * d),
            b_cand=rng.normal(size=d),
        )
        gru.b_gates[:d] = 50.0
        h_prev = rng.normal(0.0, 2.0, size=(4, d))
        h_t, _ = GruCell(gru).step(rng.normal(size=(4, 3)), (h_prev,))
        worst = max(worst, float(np.abs(h_t - h_prev).max()))
    report(3, worst <= 1e-10, f"worst passthrough deviation {worst:.1e} over 25 random states")


def test_criterion_04_parameter_count_ratio():
    ok = True
    for i, d in ((150, 300), (24, 32), (5, 7), (1, 1)):
        rng = Rng(0)
        gru = param_count(init_gru_cell(i, d, rng))
        lstm = param_count(init_lstm_cell(i, d, rng))
        ok = ok and (4 * gru == 3 * lstm)
    report(4, ok, "count(GRU) == 0.75 * count(LSTM) exactly, biases included, at 4 sizes")


def test_criterion_05_bn_convergence(task):
    dataset, splits, cfg, trained, train_seconds = task
    _, plain = trained("LSTM1", 0)
    _, with_bn = trained("LSTM1-BN", 0)
    cap = EPOCH_BUDGET * plain.steps_per_epoch
    steps_plain = steps_to_threshold(plain, 0.60) or cap
    steps_bn = steps_to_threshold(with_bn, 0.60)
    elapsed = train_seconds("LSTM1", 0) + train_seconds("LSTM1-BN", 0)
    ok = steps_bn is not None and steps_bn * 2 <= steps_plain and elapsed < 600.0
    report(5, ok, f"steps to 60% val: LSTM1-BN {steps_bn} vs LSTM1 {steps_plain}"
                  f"{' (budget cap)' if steps_to_threshold(plain, 0.60) is None else ''}, "
                  f"{elapsed:.0f}s")


def test_criterion_06_ladder_ordering(task):
    dataset, splits, cfg, trained, _ = task
    means = {}
    for name in ("RNN1", "LSTM1", "GRU1-BN-DP", "BI-GRU2-BN-DP-H"):
        means[name] = float(np.mean([trained(name, s)[1].test_accuracy for s in LADDER_SEEDS]))
    chain = ("BI-GRU2-BN-DP-H", "GRU1-BN-DP", "LSTM1", "RNN1")
    gaps = {f"{a}>{b}": means[a] - means[b] for a, b in zip(chain, chain[1:])}
    ok = all(g >= 0.02 for g in gaps.values())
    detail = ", ".join(f"{n}={means[n]:.3f}" for n in chain)
    report(6, ok, detail + " | gaps: " + ", ".join(f"{k} {v:+.3f}" for k, v in gaps.items()))


def test_criterion_07_fusion_superiority(task):
    dataset, splits, cfg, trained, _ = task
    rnn_model, rnn_res = trained("BI-GRU2-BN-DP-H", 0)
    cnn_model, cnn_res = trained("C3D-DESK", 0)
    best_single = max(rnn_res.test_accuracy, cnn_res.test_accuracy)
    rows = run_fusion(rnn_model, cnn_model, dataset, splits, cfg["svm_c"])
    feat, dec = rows["FEATURE-FUSION"], rows["DECISION-FUSION"]

    def block_offdiag_share(confusion, pair):
        block = confusion[np.ix_(pair, pair)]
        return float(block[0, 1] + block[1, 0]) / max(float(block.sum()), 1.0)

    # designed ambiguities: the recurrent stream cannot split classes (0,1),
    # the convolutional stream cannot split classes (2,3)
    rnn_ceiling = block_offdiag_share(rnn_res.confusion, [0, 1])
    cnn_ceiling = block_offdiag_share(cnn_res.confusion, [2, 3])
    ok = (
        feat["test_accuracy"] >= best_single + 0.05
        and dec["test_accuracy"] >= best_single - 0.01
        and rnn_ceiling >= 0.25
        and cnn_ceiling >= 0.25
    )
    report(7, ok,
           f"feature {feat['test_accuracy']:.3f}, decision {dec['test_accuracy']:.3f} "
           f"vs best single {best_single:.3f} (rnn {rnn_res.test_accuracy:.3f} / "
           f"cnn {cnn_res.test_accuracy:.3f}); ambiguous-pair confusion shares "
           f"rnn(0,1)={rnn_ceiling:.2f}, cnn(2,3)={cnn_ceiling:.2f}")


def test_criterion_08_voting_truth_table():
    def pred(conf, label, k=4):
        probs = np.full(k, (1.0 - conf) / (k - 1))
        probs[label] = conf
        return Prediction.from_probs(probs)

    r, c = pred(0.9, 1), pred(0.6, 2)
    first = decision_fuse(TrustWeights(1.0, 1.0), r, c) is r
    r, c = pred(0.9, 1), pred(0.4, 2)  # 0.9 < 2.88 * 0.4
    weighted = decision_fuse(TrustWeights(1.0, 2.88), r, c) is c
    r, c = pred(0.5, 1), pred(0.5, 2)
    tie = decision_fuse(TrustWeights(1.0, 1.0), r, c) is c
    ok = first and weighted and tie
    report(8, ok, f"first branch {first}, weighted branch {weighted}, tie->CNN {tie}")


def test_criterion_09_ladder_determinism(task, tmp_path):
    dataset, _, _, _, _ = task
    cfg = default_config()
    cfg.update(epochs=3, ladder_models=["RNN1", "LSTM1-BN"], seed=123)
    run_ladder(dataset, cfg, out_dir=tmp_path / "a")
    run_ladder(dataset, cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "ladder_results.json").read_bytes()
    b = (tmp_path / "b" / "ladder_results.json").read_bytes()
    ok = a == b and json.loads(a)
    report(9, bool(ok), f"two runs, {len(a)} bytes of RunResult JSON, bit-identical: {a == b}")


def test_criterion_10_padding_invariance(task):
    dataset, splits, cfg, trained, _ = task
    model, _ = trained("BI-GRU2-BN-DP-H", 0)
    rng = Rng(31337)
    picks = list(rng.integers(0, len(dataset), size=50))
    identical = 0
    for i in picks:
        seq = dataset[int(i)].skeleton
        exact = SequenceBatch(seq.flat()[None, :, :], [seq.t_true])
        padded_data = np.zeros((1, seq.t_true + 37, seq.feature_width))
        padded_data[0, : seq.t_true] = seq.flat()
        padded = SequenceBatch(padded_data, [seq.t_true])
        la, _, _ = model.forward(exact, mode="inference")
        lb, _, _ = model.forward(padded, mode="inference")
        identical += int(np.array_equal(la, lb))
    report(10, identical == 50, f"{identical}/50 sequences give bit-identical logits after +37 pad steps")
