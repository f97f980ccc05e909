"""Parent/change comparison for a BENCH_<n>.json record.

    python3 tools/bench_pairs.py --parent <commit> --out BENCH_<n>.json \
        --scratch <dir> --sections pairs,traced,inproc,tier1,ladder

The parent runs from a `git archive` export of <commit> under --scratch, the
change from this working tree. Sections:

- pairs: PAIRS alternating pairs of `perfbench/run.py --trace 0` per
  workload of BENCHMARK.json and seed of SEEDS, each run as long as
  BENCHMARK.json's run_seconds; odd-numbered pairs (from 1) run the parent
  first;
- traced: PAIRS alternating `--trace 1` pairs of video-train at the first
  seed, for the traced C3D-DESK step p50 and the conv3d span totals;
- inproc: both packages imported side by side in one process (the parent as
  a renamed copy), the 32-clip C3D-DESK inference forward and train step
  timed in INPROC_REPS interleaved repetitions, plus their tracemalloc peaks;
- tier1, ladder: 3 alternating runs per side of the Tier-1 suite and of
  `twostream ladder` at the default config, with one BLAS thread.

Each section is merged into --out, so sections can run one at a time. One
process runs at a time: the runs are timed on a shared machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_SECONDS = BENCHMARK["run_seconds"]
SEEDS = (0, 7919)
PAIRS = 10
INPROC_REPS = 60
BENCH_CMD = f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {RUN_SECONDS} --trace <0|1>"
TRACED_METRICS = (
    "models.C3D-DESK.step_ms.p50",
    "conv3d.conv1a.fwd_ms",
    "conv3d.conv1a.bwd_ms",
    "conv3d.conv2a.fwd_ms",
    "conv3d.conv2a.bwd_ms",
    "conv3d.pool.ms",
    "conv3d.self_ms",
    "trace.samples_per_s.untraced",
)


def blas_env():
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def export_parent(commit, scratch):
    dest = Path(scratch) / f"parent-{commit}"
    if not dest.exists():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def sides(pair):
    """Run order of pair k (from 0): the parent first in odd-numbered pairs."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def summary(values):
    v = np.asarray(values, dtype=np.float64)
    q1, q3 = np.percentile(v, [25, 75])
    r = lambda a: round(float(a), 4)  # noqa: E731
    return {"median": r(np.median(v)), "min": r(v.min()), "max": r(v.max()), "q1": r(q1), "q3": r(q3),
            "runs": [r(a) for a in v]}


def compare(parent, change, unit, better):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    pct = (cs["median"] - ps["median"]) / ps["median"] * 100 if ps["median"] else 0.0
    return {"unit": unit, "better": better, "parent": ps, "change": cs, "change_wins": int(wins),
            "ties": int(ties), "of": len(parent), "parent_iqr": round(ps["q3"] - ps["q1"], 4),
            "median_change_pct": round(pct, 2)}


def perfbench(side_dir, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=side_dir, env=blas_env(), check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(dirs, workload, seed, trace, names=None):
    runs = {"parent": [], "change": []}
    order = []
    for k in range(PAIRS):
        order.append(sides(k)[0])
        for side in sides(k):
            runs[side].append(perfbench(dirs[side], workload, seed, trace))
            print(f"{workload} seed {seed} trace {trace} pair {k + 1} {side} done", file=sys.stderr, flush=True)
    first = runs["parent"][0]["metrics"]
    names = names or list(first)
    return {
        "pairs": PAIRS,
        "first_side": order,
        "correct_all_runs": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "metrics": {
            name: compare([r["metrics"][name]["value"] for r in runs["parent"]],
                          [r["metrics"][name]["value"] for r in runs["change"]],
                          first[name]["unit"], better_of(name))
            for name in names
        },
    }


def better_of(name):
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        if entry["name"] == name:
            return entry["better"]
    raise KeyError(name)


def section_pairs(args, dirs):
    return {f"{w} seed {s}": run_pairs(dirs, w, s, 0) for s in SEEDS for w in WORKLOADS}


def section_traced(args, dirs):
    return run_pairs(dirs, "video-train", SEEDS[0], 1, TRACED_METRICS)


# ---------------------------------------------------------------------------
# In-process timing of the C3D-DESK forward and train step
# ---------------------------------------------------------------------------


def import_renamed(src_dir, name, scratch):
    """Import the twostream package under src_dir as `name` (a renamed copy;
    the package imports itself relatively only)."""
    dest = Path(scratch) / f"pkg-{name}"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(Path(src_dir) / "twostream", dest / name)
    sys.path.insert(0, str(dest))
    try:
        return importlib.import_module(f"{name}.models"), importlib.import_module(f"{name}.tensor"), \
            importlib.import_module(f"{name}.heads")
    finally:
        sys.path.pop(0)


def section_inproc(args, dirs):
    reps = INPROC_REPS
    clips = np.random.default_rng(1).normal(size=(32, 3, 16, 16, 16))
    labels = np.arange(32) % 6
    work = {}
    for side in ("parent", "change"):
        models, tensor, heads = import_renamed(dirs[side] / "src", f"twostream_{side}", args.scratch)
        model = models.build_model(models.ModelSpec("C3D-DESK"), tensor.Rng(0))

        def infer(model=model):
            return model.forward(clips)[0]

        def step(model=model, heads=heads):
            logits, _, cache = model.forward(clips, mode="train")
            _, grad = heads.softmax_xent(logits, labels)
            return model.backward(cache, grad)

        work[side] = {"inference_forward": infer, "train_step": step}
    equal = np.array_equal(work["parent"]["inference_forward"](), work["change"]["inference_forward"]())
    gp, gc = work["parent"]["train_step"](), work["change"]["train_step"]()
    equal = equal and sorted(gp) == sorted(gc) and all(np.array_equal(gp[k], gc[k]) for k in gp)
    times = {side: {what: [] for what in work[side]} for side in work}
    for k in range(reps):
        for side in sides(k):
            for what, fn in work[side].items():
                t0 = time.perf_counter()
                fn()
                times[side][what].append((time.perf_counter() - t0) * 1e3)
    peaks = {}
    for side in work:
        peaks[side] = {}
        for what, fn in work[side].items():
            got = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    fn()
                    got.append(tracemalloc.get_traced_memory()[1] / 1e6)
                finally:
                    tracemalloc.stop()
            peaks[side][what] = round(min(got), 3)
    result = {
        "method": (f"parent and change imported side by side in one process (the parent as a renamed copy of "
                   f"its package), {reps} interleaved repetitions with the first side alternating; C3D-DESK at "
                   f"the default ModelSpec, 32 clips 3x16x16x16 f64; inference_forward is forward() in inference "
                   f"mode, train_step is the train-mode forward, softmax_xent and backward (no optimizer); "
                   f"tracemalloc peaks are the min of 3 calls"),
        "outputs_equal": bool(equal),
        "tracemalloc_peak_mb": peaks,
    }
    for what in ("inference_forward", "train_step"):
        p20 = {s: float(np.percentile(times[s][what], 20)) for s in times}
        med = {s: float(np.median(times[s][what])) for s in times}
        result[what] = {
            "p20_ms": {s: round(v, 3) for s, v in p20.items()},
            "median_ms": {s: round(v, 3) for s, v in med.items()},
            "change_over_parent_p20": round(p20["change"] / p20["parent"], 3),
        }
    return result


# ---------------------------------------------------------------------------
# Tier-1 and ladder wall times
# ---------------------------------------------------------------------------


def timed(cmd, cwd):
    env = {**blas_env(), "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def alternating_runs(dirs, run_one):
    runs = {"parent": [], "change": []}
    for k in range(3):
        for side in sides(k):
            runs[side].append(run_one(dirs[side]))
            print(f"{run_one.__name__} run {k + 1} {side} done", file=sys.stderr, flush=True)
    return runs


def section_tier1(args, dirs):
    def tier1(cwd):
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
        seconds, proc = timed(cmd, cwd)
        passed = re.search(r"(\d+) passed", proc.stdout)
        failed = re.search(r"(\d+) failed", proc.stdout)
        return seconds, int(passed.group(1)) if passed else 0, int(failed.group(1)) if failed else 0

    runs = alternating_runs(dirs, tier1)
    return {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -p no:cacheprovider "
                   "(OPENBLAS_NUM_THREADS=1), 3 alternating runs per side",
        "runs_s": {s: [round(r[0], 1) for r in runs[s]] for s in runs},
        "median_s": {s: round(float(np.median([r[0] for r in runs[s]])), 1) for s in runs},
        "passed": {s: runs[s][0][1] for s in runs},
        "failed": {s: max(r[2] for r in runs[s]) for s in runs},
    }


def section_ladder(args, dirs):
    def ladder(cwd):
        out = Path(tempfile.mkdtemp(dir=args.scratch))
        try:
            cmd = [sys.executable, "-c", "import sys; from twostream.cli import main; sys.exit(main())",
                   "ladder", "--out", str(out)]
            seconds, proc = timed(cmd, cwd)
            if proc.returncode:
                raise RuntimeError(proc.stderr[-2000:])
            return seconds, hashlib.sha256((out / "ladder_results.json").read_bytes()).hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)

    runs = alternating_runs(dirs, ladder)
    return {
        "command": "OPENBLAS_NUM_THREADS=1 twostream ladder --out <dir> (default config), 3 alternating runs per side",
        "runs_s": {s: [round(r[0], 1) for r in runs[s]] for s in runs},
        "median_s": {s: round(float(np.median([r[0] for r in runs[s]])), 1) for s in runs},
        "ladder_results_sha256": {s: sorted({r[1] for r in runs[s]}) for s in runs},
    }


SECTIONS = {
    "pairs": ("results", section_pairs),
    "traced": ("traced_step_p50", section_traced),
    "inproc": ("inprocess_c3d_desk", section_inproc),
    "tier1": ("tier1", section_tier1),
    "ladder": ("twostream_ladder", section_ladder),
}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"dtype": "float64", "OPENBLAS_NUM_THREADS": "1", "numpy": np.__version__,
            "python": platform.python_version(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--out", required=True, help="BENCH_<n>.json to create or merge into")
    p.add_argument("--scratch", required=True, help="directory for the parent export and temporary files")
    p.add_argument("--sections", default=",".join(SECTIONS))
    args = p.parse_args(argv)
    Path(args.scratch).mkdir(parents=True, exist_ok=True)
    dirs = {"parent": export_parent(args.parent, args.scratch), "change": ROOT}
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("parent_commit", args.parent)
    record["command"] = BENCH_CMD
    record["environment"] = environment()
    for name in args.sections.split(","):
        key, fn = SECTIONS[name]
        value = fn(args, dirs)
        if name == "pairs":
            record.setdefault(key, {}).update(value)
        else:
            record[key] = value
        out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
