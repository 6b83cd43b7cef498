"""One pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED PASS_INDEX TRACE WORKDIR SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared between processes), so the reported set-up
time covers interpreter start, ``import foldcheck`` with numpy, input
generation and one untimed warm-up operation.  The last line of standard
output is one JSON object with the pass's figures; problems found by the
checks go to standard error.

Between operations the pass runs ``hostspeed.probe`` (untimed) every
``PROBE_EVERY_S`` seconds; ``scales`` and ``setup_scale`` in the result
turn the operation and set-up wall times into times at the reference host
speed (see ``hostspeed.py``).
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# the package is not installed: run it from the checkout's sources
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_EVERY_S = 0.2


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace, workdir, spawned_at = argv
    seed, pass_index, trace = int(seed), int(pass_index), trace == "1"
    workdir = Path(workdir)
    spawned_at = float(spawned_at)

    tracer = None
    if workload == "cli-cold":
        # the work happens in CLI child processes; each traced child writes
        # its own spans next to the inputs
        warmup, ops = WORKLOADS[workload](seed, pass_index, workdir, workdir if trace else None)
    else:
        import foldcheck  # noqa: F401  (numpy included)

        if trace:
            tracer = spans.Tracer()
            tracer.install()
        warmup, ops = WORKLOADS[workload](seed, pass_index, workdir)
    warmup.run()
    if tracer is not None:
        tracer.reset()
    setup_s = time.monotonic() - spawned_at
    # imported only now: in cli-cold the worker's set-up imports nothing
    import hostspeed

    scaler = hostspeed.Scaler(PROBE_EVERY_S)

    times: list[float] = []
    failed = 0
    problems: list[str] = []
    for op in ops:
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception:  # the program failed on this input: count it, keep going
            times.append(time.perf_counter() - start)
            failed += 1
            print(f"[{workload}] operation failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
            scaler.after_op()
            continue
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        try:
            op_failed, op_problems = op.check(output)
        except Exception:  # an output the checks cannot read is a wrong output
            op_failed, op_problems = False, [f"{op.label}: {traceback.format_exc()}"]
        if tracer is not None:
            tracer.enabled = True
        failed += op_failed
        problems += op_problems
        del output
        scaler.after_op()
    scales = scaler.finish()

    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "times": times,
        "failed": failed,
        "problems": problems,
        "rss_kb": resource.getrusage(usage).ru_maxrss,
        "scales": scales,
        "setup_scale": scaler.setup_scale,
    }
    if trace:
        if tracer is not None:
            raws = [tracer.raw()]
        else:
            files = sorted(workdir.glob(f"cli-{pass_index}-*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
            raws = [json.loads(p.read_text()) for p in files]
        spans_file = workdir / f"spans-{pass_index}.jsonl"
        spans.write(spans_file, raws)
        result["layers"] = spans.summarize(raws)
        result["spans_file"] = str(spans_file)
    for line in problems:
        print(f"[{workload}] wrong output: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
