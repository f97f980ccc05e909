"""Benchmark of the twostream toolkit: one closed-loop workload per run.

    python3 perfbench/run.py --workload skeleton-train --seed 0 --seconds 24 --trace 0

One caller issues each operation when the previous one has returned. The run
sets up its inputs from --seed (several times, reporting the median set-up
time), repeats identical rounds of work for --seconds, checks the outputs
against stored references, and prints one JSON object as the last line of
standard output. --trace 0 reports the end-to-end metrics named in
BENCHMARK.json; --trace 1 reports the per-layer ones from a traced run. See
perfbench/README.md.
"""

import os

# Pin BLAS before numpy loads: on a 2-vCPU Xeon VM, back-to-back C3D-DESK steps
# took 296 and 603 ms at two threads, 350 and 361 ms at one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("skeleton-train", "video-train", "fusion-eval")
# Traced self times must add up to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.01
# Median time of one Calibration.measure() on a shared 2-vCPU Intel Xeon VM at
# 2.1 GHz with one BLAS thread.
CALIBRATION_REF_S = 0.0170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test size")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import twostream from this checkout's src/, never from anywhere else."""
    package = SRC / "twostream"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twostream sources at {package}")
    sys.path.insert(0, str(SRC))
    import twostream

    if Path(twostream.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported twostream from {twostream.__file__}, not {package}")


def environment():
    from twostream.tensor import default_dtype

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "dtype": np.dtype(default_dtype()).name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Calibration:
    """A fixed numpy kernel that never touches twostream, timed next to every
    round and set-up to read the machine's current speed.

    On a shared 2-vCPU Xeon VM the same code ran up to a third faster or
    slower from one minute to the next as neighbours loaded the host, within
    one run and across runs, which swamps a code change.
    Scaling each measured time by this kernel's time, measured just before
    and after it, cancels the drift and leaves code changes whole, because the
    kernel's own code never changes. Its two halves mimic the workloads: small
    matmul and elementwise steps in a Python loop (like a recurrent unroll)
    and tall, narrow matmuls over a large array (like a channels-last conv).
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((16, 40))
        self.w = rng.standard_normal((40, 48)) * 0.1
        self.tall = rng.standard_normal((40000, 8))
        self.k = rng.standard_normal((8, 16))
        self.acc = np.zeros((40000, 16))
        self.samples = []

    def _once(self):
        t0 = time.perf_counter()
        x = self.x.copy()
        for _ in range(800):
            h = np.tanh(x @ self.w)
            x[:, :8] = 0.5 * np.where(h > 0.0, h, 0.0)[:, :8]
        self.acc[...] = 0.0
        for _ in range(8):
            self.acc += self.tall @ self.k
        return time.perf_counter() - t0

    def measure(self):
        """Median of five kernel times, in seconds; also kept in `samples`."""
        t = statistics.median(self._once() for _ in range(5))
        self.samples.append(t)
        return t

    @staticmethod
    def slowdown(before, after):
        """How much slower than the reference the machine ran between two
        measurements: scale rates up and times down by it."""
        return (before + after) / (2.0 * CALIBRATION_REF_S)


def median_or_zero(values):
    """Median of the rounds that completed; 0 when the first one raised."""
    return statistics.median(values) if values else 0.0


def run_rounds(wl, seconds, tally, cal, tracer=None):
    """Repeat rounds until `seconds` have passed or one raises (at least one).
    Returns each round's samples/s, raw and scaled to the reference machine
    speed, and, when traced, the counters of the first round."""
    raw, scaled, first_counts = [], [], None

    def calibrate():
        if tracer is None:
            return cal.measure()
        root = tracer.begin("bench.calibrate")
        try:
            return cal.measure()
        finally:
            tracer.finish(root)

    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        before = Counter(tracer.counts) if tracer else None
        root = tracer.begin("bench.round") if tracer else None
        t0 = time.perf_counter()
        try:
            rnd = wl.round()
        except Exception:
            tally.raised()
            break
        finally:
            if tracer:
                tracer.finish(root)
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        raw.append(rnd.samples / elapsed)
        scaled.append(raw[-1] * cal.slowdown(cal_before, cal_after))
        cal_before = cal_after
        if tracer and first_counts is None:
            first_counts = tracer.counts - before
        tally.add(wl, rnd)
        if time.perf_counter() - start >= seconds:
            break
    return raw, scaled, first_counts


def measure_plain(args, workdir, tally):
    import workloads

    cal = Calibration()
    raw_setup, scaled_setup, wl = [], [], None
    cal_before = cal.measure()
    for _ in range(SETUP_REPEATS):
        wl = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        wl.setup()
        raw_setup.append(time.perf_counter() - t0)
        cal_after = cal.measure()
        scaled_setup.append(raw_setup[-1] / cal.slowdown(cal_before, cal_after))
        cal_before = cal_after
    raw, scaled, _ = run_rounds(wl, args.seconds, tally, cal)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(scaled_setup),
        "samples_per_s": median_or_zero(scaled),
        "peak_rss_mb": peak_mb,
    }
    return metrics, {
        "setup_s_wall": raw_setup,
        "round_samples_per_s_wall": raw,
        "samples_per_s_wall": median_or_zero(raw),
        "calibration_s": cal.samples,
    }


def conv_layer_names(cfg):
    """Filter count -> layer name for the desk C3D, from its own shape chain."""
    from twostream import conv3d

    spec = conv3d.desk_scale_c3d_spec(cfg["n_classes"], cfg["video_shape"], cfg["cnn_filters"], cfg["cnn_fc_dim"])
    return {shape[0]: name for name, shape in spec.shape_chain() if name.startswith("conv")}


def measure_traced(args, workdir, tally, env):
    """Half the time untraced, half traced: the traced run gives the per-layer
    metrics, the pair gives the tracing overhead."""
    import spans
    import workloads

    cal = Calibration()
    wl = workloads.make(args.workload, args.seed, args.size, workdir)
    wl.setup()
    _, plain_rates, _ = run_rounds(wl, args.seconds / 2, tally, cal)
    tracer = spans.Tracer(conv_layer_names(wl.cfg))
    wl = None

    undo, missing = spans.install(tracer)
    try:
        t0 = time.perf_counter()
        root = tracer.begin("bench.setup")
        try:
            wl = workloads.make(args.workload, args.seed, args.size, workdir)
            wl.setup()
        finally:
            tracer.finish(root)
        _, traced_rates, round_counts = run_rounds(wl, args.seconds / 2, tally, cal, tracer)
        wall_s = time.perf_counter() - t0
    finally:
        spans.uninstall(undo)

    metrics = spans.layer_metrics(tracer, round_counts or Counter(), wall_s)
    untraced, traced = median_or_zero(plain_rates), median_or_zero(traced_rates)
    metrics["trace.samples_per_s.untraced"] = untraced
    metrics["trace.samples_per_s.traced"] = traced
    metrics["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0 if traced else 0.0
    tracer.write(str(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"), env)
    accounted = (
        metrics["trace.negative_self_spans"] == 0
        and abs(metrics["trace.self_coverage"] - 1.0) <= SELF_TIME_TOLERANCE
    )
    return metrics, {"missing_targets": missing, "self_time_accounted": accounted}


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()

    env = environment()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        expected = workloads.load_references()[args.workload].get(
            workloads.reference_key(args.size, args.seed)
        )
        tally = workloads.Tally(expected)
        if args.trace:
            metrics, detail = measure_traced(args, str(workdir), tally, env)
        else:
            metrics, detail = measure_plain(args, str(workdir), tally)
        accuracy, reference_ok = workloads.reference_check(args.workload, str(workdir), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics["accuracy"] = accuracy
    metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    correct = tally.failed == 0 and reference_ok and detail.get("self_time_accounted", True)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    detail.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        full_size_reference=expected is not None,
        failed_ratio=tally.failed / tally.attempted,
    )
    print("perfbench env " + json.dumps(env, sort_keys=True))
    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
