"""One benchmark sample in a fresh process, so gausslip's caches start cold.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 --out RESULT.json

Runs from the root of a gausslip checkout and imports gausslip from its
``src``.  The library workloads time their seeded request stream; ``cli-all``
(used here only for the traced run) calls the CLI entry point in-process once
per suite.  The result, with per-layer metrics when traced, goes to ``--out``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import SUITES, layer_metrics  # noqa: E402


def strip_timestamp(report_text: str) -> str:
    """A JSON report without its timestamp line, which is all that may differ
    between two runs of the same seed."""
    return re.sub(r'^\s*"timestamp": ".*",\n', "", report_text, count=1, flags=re.M)


def import_gausslip(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import gausslip
    if Path(gausslip.__file__).resolve().parent != (src / "gausslip").resolve():
        raise ImportError(f"gausslip was imported from {gausslip.__file__}, not {src}")
    return gausslip


def run_library(workload: str, seed: int, tracer) -> dict:
    import workloads
    reqs = workloads.build(workload, seed)
    if tracer is not None:
        tracer.install()
    latencies, failures = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, req in enumerate(reqs):
        span = tracer.request_span(i, f"request.{req.kind}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = req.run()
            errs = None
        except Exception as exc:  # a failed request is recorded, the stream goes on
            errs = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - start)
        if errs is None:
            try:
                errs = req.check(out)
            except Exception as exc:  # a malformed result fails its check
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            known = all(isinstance(e, workloads.KnownDefect) for e in errs)
            failures.append({"request": i, "kind": req.kind,
                             "known_defect": known, "errors": errs[:3]})
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "latencies_s": latencies, "attempted": len(reqs), "ops": len(reqs),
            "failures": failures}


def run_cli_in_process(seed: int, tracer, scratch: Path) -> dict:
    """Each suite through ``gausslip.cli.main``, as ``--suite all`` runs them."""
    from gausslip import cli
    if tracer is not None:
        tracer.install()
    failures, rows, bodies = [], 0, []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, suite in enumerate(SUITES):
        path = scratch / f"report-{suite}.json"
        argv = ["--suite", suite, "--format", "json", "--out", str(path), "--seed", str(seed)]
        span = tracer.request_span(i, "request.cli") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        text = path.read_text(encoding="utf-8")
        bodies.append(strip_timestamp(text))
        report = json.loads(text)
        rows += len(report["rows"])
        bad = [r["name"] for r in report["rows"] if not r["pass"]]
        if code != 0 or bad:
            failures.append({"request": i, "kind": suite, "known_defect": False,
                             "errors": [f"exit {code}"] + bad[:3]})
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "latencies_s": [], "attempted": rows, "ops": rows,
            "failures": failures, "body": "".join(bodies)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-all", "kernel-apply", "spectral-probes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    root = Path.cwd()
    gausslip = import_gausslip(root)
    import numpy as np

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    out = Path(args.out)
    if args.workload == "cli-all":
        result = run_cli_in_process(args.seed, tracer, out.parent)
    else:
        result = run_library(args.workload, args.seed, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, result)
        if args.trace_file:
            tracer.write(args.trace_file)
    result["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                     "gausslip": gausslip.__version__}
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
