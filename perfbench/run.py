"""Benchmark of the tileupb command line, one workload per run.

    python3 perfbench/run.py --workload utile-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it reports the
end-to-end metrics: set-up time, the time of one pass over the
workload's operations, the typical operation and peak resident memory.
With ``--trace 1`` it runs the same operations with every stage
function wrapped and reports per-layer self times and counters.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Result and trace files go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

# The same as workloads.WORKLOADS, which this process does not import:
# it would pull in tileupb and numpy.
WORKLOADS = ("utile-sweep", "upb-verify", "locc-distinguish")
SETUP_PROBES = 4      # extra fresh processes that only set up, for the setup_s median
TIME_LIMIT = 170.0    # seconds for the whole run
THREADS = "1"         # BLAS/OpenMP threads, also pinned by the worker


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _spawn(args, workdir: Path, deadline: float, extra=()) -> dict:
    """Run the worker in a fresh process and return its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    started = perf_counter()
    proc = subprocess.run([*cmd, "--started", repr(started)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "tileupb" / "cli.py").is_file():
        print(f"error: no tileupb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                setups.append(_spawn(args, workdir / f"probe{k}", deadline, ["--setup-only"])["setup_s"])
        extra = ["--trace-file", str(OUT / f"trace-{args.workload}-s{args.seed}.json")] if args.trace else []
        report = _spawn(args, workdir / "run", deadline, extra)
        setups.append(report["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if report.get("unbound"):
        print(f"warning: stage functions not found: {', '.join(report['unbound'])}", file=sys.stderr)
    medians = [statistics.median(op["samples"]) for op in report["ops"]]
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, (unit, _) in METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": sum(medians), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(medians) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": report["rss_kb"] / 1024, "unit": "MB"},
        }
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **result, "passes": report["passes"], "problems": report["problems"],
        "setups_s": setups, "ops": report["ops"],
    }, indent=1))
    print(f"{args.workload} seed {args.seed}: {report['passes']} passes, "
          f"{report['attempted']} operations, {report['failed']} failed")
    for problem in report["problems"]:
        print(f"  wrong: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
