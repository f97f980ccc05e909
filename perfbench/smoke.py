"""Smoke test of the benchmark itself.

Every workload runs at tiny size, untraced and traced, and must print every
metric BENCHMARK.json names, with its unit, and pass its output check; a
deliberately perturbed reference loss must make the output check fail.

    python3 -m pytest perfbench/smoke.py     # or: python3 perfbench/smoke.py

The file name keeps it out of the repository's default test collection.
"""

import copy
import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_named_metric_reported_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload["name"], trace)
            label = f"{workload['name']} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
            assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}, label
            for m in SPEC[group]:
                reported = result["metrics"][m["name"]]
                assert reported["unit"] == m["unit"], (label, m["name"])
                assert isinstance(reported["value"], numbers.Real), (label, m["name"])


def test_perturbed_reference_loss_fails_the_check():
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    import workloads

    expected = workloads.load_references()["skeleton-train"][
        workloads.reference_key("tiny", workloads.DEFAULT_SEED)
    ]
    wl = workloads.make("skeleton-train", workloads.DEFAULT_SEED, "tiny", workdir=None)
    wl.setup()
    outputs = wl.round().outputs
    assert wl.failed_ops(outputs, workloads.mismatches(outputs, expected)) == 0

    perturbed = copy.deepcopy(expected)
    perturbed["LSTM1.losses"][1] *= 1.0 + 1e-6
    failed = wl.failed_ops(outputs, workloads.mismatches(outputs, perturbed))
    assert failed == outputs["LSTM1.steps"][0]  # exactly the steps of that one epoch


if __name__ == "__main__":
    test_perturbed_reference_loss_fails_the_check()
    test_every_named_metric_reported_with_its_unit()
    print("perfbench smoke: ok")
