"""gausslip benchmark: one closed-loop client, one fresh process per sample.

    python3 perfbench/run.py --workload {cli-all,kernel-apply,spectral-probes}
                             --seed N --seconds S --trace {0,1}

Run from the root of a gausslip checkout; gausslip is imported from ``src``.
With ``--trace 0`` it measures set-up time in fresh processes, then runs
samples for about ``--seconds`` (at least two) and prints every end-to-end
metric as the median over samples.  With ``--trace 1`` it runs one untraced
and one traced sample of the same seed and prints the per-layer metrics.
Every output is checked; the last line of stdout is the JSON result.
See README.md for the workloads and the metric-to-layer map.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from worker import strip_timestamp  # noqa: E402

WORKLOADS = ("cli-all", "kernel-apply", "spectral-probes")
MIN_SAMPLES = 2
SETUP_PROBES = 7
#: every run ends well inside the 180 s a run may take
DEADLINE_S = 165.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import gausslip.quadrature\n"
              "gausslip.quadrature.default_rule()\n"
              "t = time.monotonic()\n"
              "import numpy\n"
              "print(repr(t), numpy.__version__)\n")


class SampleError(RuntimeError):
    pass


def child_env(root: Path) -> tuple[dict, int, int]:
    """Environment for every child: gausslip from ``src``, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    threads = nproc
    for var in BLAS_VARS:
        if env.get(var, "").isdigit() and int(env[var]) > 0:
            threads = min(threads, int(env[var]))
    for var in BLAS_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, nproc, threads


def run_child(argv, env, deadline: float, stdout=subprocess.DEVNULL):
    """Run one child to completion; returns (exit code, wall s, rusage)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stdin=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise SampleError(f"{argv[1]} exceeded the run deadline and was stopped")
            time.sleep(0.005)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
        raise
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def measure_setup(root: Path, env: dict, scratch: Path, deadline: float) -> tuple[list, str]:
    """Fresh-process start to imported gausslip with the default rule built."""
    times, numpy_version = [], "?"
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryFile(dir=scratch) as out:
            start = time.monotonic()
            code, _, _ = run_child([sys.executable, "-c", SETUP_CODE, str(root / "src")],
                                   env, deadline, stdout=out)
            out.seek(0)
            text = out.read().decode().split()
        if code != 0 or len(text) != 2:
            raise SampleError(f"set-up probe failed with exit code {code}")
        times.append(float(text[0]) - start)
        numpy_version = text[1]
    return times, numpy_version


def cli_sample(root: Path, env: dict, seed: int, scratch: Path, k: int, deadline: float) -> dict:
    """``gausslip --suite all`` as a user runs it, with its report checked."""
    path = scratch / f"report-{k}.json"
    argv = [sys.executable, "-m", "gausslip.cli", "--suite", "all", "--format", "json",
            "--out", str(path), "--seed", str(seed)]
    code, wall, usage = run_child(argv, env, deadline)
    failures, rows, body = [], 0, None
    try:
        text = path.read_text(encoding="utf-8")
        report = json.loads(text)
        rows = len(report["rows"])
        body = strip_timestamp(text)
        failures += [{"kind": "row", "known_defect": False, "errors": [r["name"]]}
                     for r in report["rows"] if not r["pass"]]
    except (OSError, ValueError, KeyError) as exc:
        failures.append({"kind": "report", "known_defect": False, "errors": [repr(exc)]})
    if code != 0:
        failures.append({"kind": "exit", "known_defect": False, "errors": [f"exit code {code}"]})
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "latencies_s": [wall],
            "attempted": max(rows, 1), "ops": rows, "failures": failures, "body": body}


def worker_sample(root: Path, env: dict, workload: str, seed: int, trace: int,
                  scratch: Path, k: int, deadline: float, trace_file=None) -> dict:
    out = scratch / f"sample-{k}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    if trace_file:
        argv += ["--trace-file", str(trace_file)]
    code, _, usage = run_child(argv, env, deadline)
    if code != 0 or not out.exists():
        raise SampleError(f"worker for {workload} failed with exit code {code}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list, q: int) -> float:
    """q-th percentile; at 100+ values this leaves 100 - q percent beyond it."""
    method = "exclusive" if len(values) >= 100 else "inclusive"
    return statistics.quantiles(values, n=100, method=method)[q - 1]


def summarize(samples: list, setup: list, workload: str) -> dict:
    per_metric = {
        "setup_s": setup,
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "ops_per_s": [s["ops"] / s["wall_s"] for s in samples],
        "peak_rss_mb": [s["rss_mb"] for s in samples],
    }
    if workload == "cli-all":
        # a request is one CLI invocation
        lat = [s["latencies_s"][0] * 1e3 for s in samples]
        per_metric["req_p50_ms"] = lat
        per_metric["req_p90_ms"] = [percentile(lat, 90)]
    else:
        per_metric["req_p50_ms"] = [percentile([v * 1e3 for v in s["latencies_s"]], 50)
                                    for s in samples]
        per_metric["req_p90_ms"] = [percentile([v * 1e3 for v in s["latencies_s"]], 90)
                                    for s in samples]
    return per_metric


def check_failures(samples: list, workload: str) -> tuple[bool, int, int, list]:
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    correct = all(f["known_defect"] for f in failures)
    if workload == "cli-all":
        bodies = {s["body"] for s in samples}
        attempted += 1
        if len(bodies) != 1 or None in bodies:
            failures.append({"kind": "determinism", "known_defect": False,
                             "errors": ["reports from the same seed differ beyond the timestamp"]})
            correct = False
    return correct, attempted, len(failures), failures


def timed_run(root, env, args, scratch, deadline) -> tuple[dict, list]:
    setup, numpy_version = measure_setup(root, env, scratch, deadline)
    samples, durations = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(samples) >= MIN_SAMPLES:
            typical = statistics.median(durations)
            if elapsed + typical > args.seconds or time.monotonic() + typical > deadline:
                break
        t0 = time.monotonic()
        if args.workload == "cli-all":
            samples.append(cli_sample(root, env, args.seed, scratch, len(samples), deadline))
        else:
            samples.append(worker_sample(root, env, args.workload, args.seed, 0,
                                         scratch, len(samples), deadline))
        durations.append(time.monotonic() - t0)
    samples[0].setdefault("env", {"numpy": numpy_version})
    return summarize(samples, setup, args.workload), samples


def traced_run(root, env, args, scratch, deadline) -> tuple[dict, list]:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    plain = worker_sample(root, env, args.workload, args.seed, 0, scratch, 0, deadline)
    traced = worker_sample(root, env, args.workload, args.seed, 1, scratch, 1, deadline,
                           trace_file=trace_file)
    layers = dict(traced["layers"])
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"trace written to {trace_file.relative_to(root)}")
    return {k: [v] for k, v in layers.items()}, [plain, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gausslip" / "__init__.py").is_file():
        print(f"error: no gausslip sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env, nproc, threads = child_env(root)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=root / ".perfbench_out") as tmp:
            run = traced_run if args.trace else timed_run
            values, samples = run(root, env, args, Path(tmp), deadline)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, failures = check_failures(samples, args.workload)
    if args.trace:
        values["fail_share"] = [failed / attempted]
    else:
        values["ok_share"] = [(attempted - failed) / attempted]
    env_info = samples[0].get("env", {})
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} samples={len(samples)} loop=closed clients=1")
    print(f"env nproc={nproc} blas_threads={threads} python={sys.version.split()[0]} "
          f"numpy={env_info.get('numpy', '?')}")
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit, *_ in catalogue:
        vals = values[name]
        q1, med, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<46} {med:>14.6g} {unit:<6} q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    for f in failures[:20]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {f['kind']}: {'; '.join(f['errors'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
