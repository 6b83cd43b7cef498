"""The foldcheck benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  Each workload runs whole
passes, each in a fresh worker process, as long as one more pass of average
length fits in --seconds (at least one pass).  A summary goes to standard
error; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, their times scaled to
the reference host speed (hostspeed.py); the unscaled figures go to the
summary.  With --trace 1 every pass runs twice on the same inputs,
untraced and traced (alternating which runs first), and the metrics are
the per-layer ones, averaged per pass, plus the tracing overhead: traced
minus untraced timed time per pass, scaled as the end-to-end times are.
The spans of the last traced pass are kept in .bench_run/trace-WORKLOAD.jsonl.

Run from anywhere inside a checkout that has ``src/foldcheck``; the
package does not need to be installed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import cli_env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("cli-cold", "closure-sweep", "large-build", "doc-ingest")
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

COLD_START_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import foldcheck.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
COLD_START_REPEATS = 5


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "algebra.table_bytes_max":
        return "bytes"
    if name == "characteristic.wu_per_manifold":
        return "calls/manifold"
    return "count"


def _scaled_sum(result: dict) -> float:
    return sum(t * f for t, f in zip(result["times"], result["scales"]))


def run_pass(workload: str, seed: int, index: int, trace: bool, workdir: Path) -> dict:
    """One pass in a fresh worker; its process group is killed if it overruns."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(index),
               str(int(trace)), str(workdir)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command + [repr(spawned_at)], stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass {index} ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} pass {index}: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cold_start_times() -> dict[str, float]:
    """Fresh-interpreter start, numpy import and foldcheck.cli import times."""
    env = cli_env()
    interpreter, numpy_import, foldcheck_import = [], [], []
    for _ in range(COLD_START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        interpreter.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", COLD_START_CODE], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout.split()
        numpy_import.append(float(out[0]))
        foldcheck_import.append(float(out[1]))
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_numpy_s": statistics.median(numpy_import),
        "cli.import_foldcheck_s": statistics.median(foldcheck_import),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """The run's result object and its sample counts."""
    workdir = RUN_DIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        start = time.monotonic()
        index = 0
        while True:
            if trace:
                # alternate which side runs first, so drift does not land on one side
                order = (True, False) if index % 2 else (False, True)
                results = {side: run_pass(workload, seed, index, side, workdir) for side in order}
                plain.append(results[False])
                traced.append(results[True])
            else:
                plain.append(run_pass(workload, seed, index, False, workdir))
            index += 1
            # start another pass only if one more of average length still fits
            elapsed = time.monotonic() - start
            if elapsed * (index + 1) / index > seconds:
                break
        if trace:
            shutil.copyfile(traced[-1]["spans_file"], RUN_DIR / f"trace-{workload}.jsonl")
            cold = cold_start_times()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    result = {
        "correct": all(not p["problems"] for p in passes),
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    if not trace:
        # times at the reference host speed: each operation's wall time
        # scaled by the probes around it (hostspeed.py)
        scaled = [[t * f for t, f in zip(p["times"], p["scales"])] for p in plain]
        times = [t for pass_times in scaled for t in pass_times]
        values = {
            "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in plain),
            "ops_per_s": statistics.median(len(t) / sum(t) for t in scaled),
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        samples = {
            "passes": len(plain),
            "op_p50_s": len(times),
            "host_scale": statistics.median(f for p in plain for f in p["scales"]),
            "raw_op_p50_s": statistics.median(t for p in plain for t in p["times"]),
            "raw_ops_per_s": statistics.median(len(p["times"]) / sum(p["times"]) for p in plain),
        }
        return result, samples
    values = dict(cold)
    for name in traced[0]["layers"]:
        per_pass = [p["layers"][name] for p in traced]
        values[name] = max(per_pass) if name == "algebra.table_bytes_max" else statistics.fmean(per_pass)
    # from times at the reference host speed, as the end-to-end metrics
    values["trace.overhead_s"] = statistics.fmean(
        _scaled_sum(t) - _scaled_sum(p) for p, t in zip(plain, traced)
    )
    result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    return result, {"passes": len(traced)}


def report(workload: str, seed: int, result: dict, samples: dict) -> None:
    status = "outputs correct" if result["correct"] else "WRONG OUTPUTS (see above)"
    lines = [
        f"[{workload}] seed {seed}: {samples['passes']} passes, {result['attempted']} operations "
        f"attempted, {result['failed']} failed, {status}"
    ]
    for name, metric in result["metrics"].items():
        note = f"  (median of {samples['op_p50_s']} operations)" if name == "op_p50_s" else ""
        lines.append(f"  {name:<45} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "host_scale" in samples:
        lines.append(f"  host scale {samples['host_scale']:.4g} (median over operations); unscaled wall "
                     f"times: ops_per_s {samples['raw_ops_per_s']:.6g}, op_p50_s {samples['raw_op_p50_s']:.6g}")
    print("\n".join(lines), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foldcheck" / "cli.py").is_file():
        print(f"bench: no foldcheck sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so each
    # operation and the probes that scale it run on the same vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result, samples = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, result, samples)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
