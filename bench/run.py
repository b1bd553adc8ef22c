"""qmeas benchmark: one workload per call, or all four in turn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--out FILE]

The first form prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the sample counts and the tail percentile.  The second form runs every
workload untraced and traced, one child process at a time, prints every
metric by name and unit, and with --out writes them with the machine facts
as JSON.

Each run happens in a worker child process (worker.py) with OMP, OpenBLAS
and MKL threads set to 1 and PYTHONPATH set to this checkout's src/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRACE_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_workload(workload, seed, seconds, trace):
    """(notes, result) of one workload run in a worker child.

    The worker runs in its own process group, so that on a timeout the CLI
    processes it started are stopped with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker for {workload} timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    notes, result = (json.loads(line) for line in out.strip().split("\n")[-2:])
    return notes, result


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with no --workload: write all results here as JSON")
    args = ap.parse_args(argv)
    if not (SRC / "qmeas" / "__init__.py").is_file():
        print(f"no qmeas sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload:
        notes, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(notes))
        print(json.dumps(result))
        return 0

    report = {"machine": machine_facts(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(json.dumps(report["machine"]))
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            notes, result = run_workload(workload, args.seed, args.seconds, trace)
            entry["trace" if trace else "end_to_end"] = {"notes": notes, **result}
            print(f"\n{workload} ({'per-layer, traced' if trace else 'end to end'}): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {json.dumps(notes['notes'])}")
            for name, m in result["metrics"].items():
                print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
