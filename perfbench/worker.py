"""One workload in one fresh process.

Sets up (imports ``tileupb``, generates the seeded inputs and writes
them), then runs a single-caller closed loop: whole passes over the
workload's operations, each an in-process ``tileupb.cli.main`` call
timed on its own.  Outputs are checked after each call, outside the
timed section.  Prints one JSON object with the samples and counts.

Run through ``run.py``; ``--setup-only`` stops after set-up.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is imported.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import tileupb  # noqa: E402
from tileupb import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# At least three passes: a median of three, and in a traced run one pass
# for allocation peaks and two for times.
MIN_PASSES = 3
MAX_PROBLEMS = 20

# The speed of a small shared VM drifts by a fifth over seconds, so
# every timing is rescaled to a reference speed: it is multiplied by
# CAL_NOMINAL over the time of a fixed calibration measured right before
# and right after it, for CAL_SHARE of the call's previous time on each
# side.  CAL_NOMINAL is the calibration's time on an unloaded 2-core
# x86-64 VM, so rescaled times read as seconds there.
CAL_NOMINAL = 3.0e-3
CAL_SHARE = 0.05
_CAL_A = np.arange(48.0) / 48.0
_CAL_M = np.add.outer(_CAL_A, _CAL_A) + np.diag(_CAL_A)


def calibration() -> None:
    """Fixed work in the program's mix: interpreter loop, small numpy
    calls, small LAPACK eigensolves."""
    s = 0
    for i in range(25000):
        s += i * i
    for _ in range(150):
        float(np.vdot(np.outer(_CAL_A, _CAL_A), _CAL_M))
    np.linalg.eigvalsh(_CAL_M)
    np.linalg.eigvalsh(_CAL_M)


def speed(window: float = 0.0) -> float:
    """Mean time of calibration runs repeated for ``window`` seconds, and
    at least three times."""
    times = []
    end = perf_counter() + window
    while len(times) < 3 or perf_counter() < end:
        t0 = perf_counter()
        calibration()
        times.append(perf_counter() - t0)
    return statistics.fmean(times)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="perf_counter() of the parent right before it started this process")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path) -> list[workloads.Op]:
    if Path(tileupb.__file__).resolve().parent != (SRC / "tileupb").resolve():
        raise RuntimeError(f"tileupb was imported from {tileupb.__file__}, not {SRC}")
    ops = workloads.build_ops(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.file:
            (workdir / op.file).write_text(workloads.tile_text(op.grid, op.label))
    return ops


def run(args) -> dict:
    workdir = Path(args.workdir)
    ops = set_up(args.workload, args.seed, workdir)
    # Process start to first timed call, rescaled like every timing.
    setup_s = (perf_counter() - args.started) * CAL_NOMINAL / speed()
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if args.trace else None
    main = cli.main
    if tracer:
        tracer.install()
        main = tracer.entry("cli.main")

    refs = checks.References()
    # One pass: every call once, then the repeats of the cheap ones.
    schedule = [(i, r) for r in range(max(op.repeat for op in ops))
                for i, op in enumerate(ops) if op.repeat > r]
    samples = [[] for _ in ops]   # rescaled call times
    raw = [[] for _ in ops]       # [wall time, calibration before, after, pass]
    output_bytes: dict[int, int] = {}
    problems: list[str] = []
    attempted = failed = passes = 0
    # Whole passes only; another starts while it is expected to end in time.
    deadline = perf_counter() + args.seconds
    pass_time = 0.0
    while passes < MIN_PASSES or perf_counter() + pass_time <= deadline:
        pass_start = perf_counter()
        if tracer:
            tracer.pass_no = passes
            tracer.alloc = passes == 0
        output_bytes[passes] = 0
        for i, rep in schedule:
            op = ops[i]
            out_path = workdir / f"out-{i:02d}.json"
            out_path.unlink(missing_ok=True)
            argv = op.argv(str(workdir), str(out_path))
            if tracer:
                tracer.op, tracer.counted = i, rep == 0
            gc.collect()
            window = CAL_SHARE * raw[i][-1][0] if raw[i] else 0.0
            before = speed(window)
            t0 = perf_counter()
            rc = main(argv)
            elapsed = perf_counter() - t0
            after = speed(window)
            samples[i].append(elapsed * 2 * CAL_NOMINAL / (before + after))
            raw[i].append([elapsed, before, after, passes])
            attempted += 1
            try:
                body = out_path.read_bytes()
                output_bytes[passes] += len(body) if rep == 0 else 0
                payload = json.loads(body)
            except (OSError, ValueError):
                payload = None
            op_failed, found = checks.check(op, rc, payload, refs)
            failed += op_failed or bool(found)
            problems += [f"{op.command} {op.label}: {p}" for p in found][: MAX_PROBLEMS - len(problems)]
        passes += 1
        pass_time = perf_counter() - pass_start

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "ops": [{"label": op.label, "command": op.command, "samples": s, "raw": r} for op, s, r in zip(ops, samples, raw)],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(output_bytes, alloc_passes={0})
        result["unbound"] = tracer.unbound
        if args.trace_file:
            # The tracing overhead is this minus the untraced pass_s.
            traced_pass_s = sum(statistics.median(t for t, r in zip(s, rs) if r[3] > 0)
                                for s, rs in zip(samples, raw))
            Path(args.trace_file).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "passes": passes,
                "traced_pass_s": traced_pass_s,
                "ops": [op.label + " " + op.command for op in ops],
                "layers": result["layers"], "spans": tracer.to_json(),
            }))
    return result


if __name__ == "__main__":
    print(json.dumps(run(_parse(sys.argv[1:]))))
