"""Write perfbench/references.json: the outputs of one round of every workload
at the sizes and seeds the output check compares against.

    python3 perfbench/make_references.py

The committed file was produced from the toolkit as it stood when the
benchmark was added. Regenerate it only when a change is meant to alter what
the toolkit computes, and say so; a change that claims a speed-up is checked
against these references, not re-baselined.
"""

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def main():
    run.import_package()
    import workloads

    refs = {}
    workdir = str(run.ROOT / ".perfbench_work" / f"refs-{os.getpid()}")
    try:
        for name in run.WORKLOAD_NAMES:
            refs[name] = {}
            for size, seed in (
                ("tiny", workloads.DEFAULT_SEED),
                ("full", workloads.DEFAULT_SEED),
                ("full", workloads.HELDOUT_SEED),
            ):
                wl = workloads.make(name, seed, size, workdir)
                wl.setup()
                refs[name][workloads.reference_key(size, seed)] = wl.round().outputs
                print(f"{name} {size} seed {seed}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w", newline="\n") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
