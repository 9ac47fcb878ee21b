"""Command-line verification runner.

A thin shell over the suites: every number in a report comes from a module
operation.  Exit code 0 iff no row failed; flagged rows never fail a build.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .fractional import KINDS, REPRESENTATIONS
from .report import write_report
from .suites import SUITES, SuiteConfig, run_suite


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gausslip",
        description="Verification suites for Gaussian-measure operator calculus")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--f", action="append", dest="functions", metavar="NAME",
                   help="catalog function (repeatable), e.g. cos:1, const:2.5, "
                        "hermite:3, expansion:/path.json")
    defaults = SuiteConfig()
    choices = {"kind": KINDS, "representation": REPRESENTATIONS}
    for field in fields(SuiteConfig)[1:]:  # functions is --f
        default = getattr(defaults, field.name)
        p.add_argument("--" + field.name.replace("_", "-"), type=type(default), default=default,
                       choices=choices.get(field.name))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--quiet", action="store_true", help="print only the summary")
    return p


def config_from_args(args) -> SuiteConfig:
    values = {field.name: getattr(args, field.name) for field in fields(SuiteConfig)}
    values["functions"] = tuple(args.functions or SuiteConfig.functions)
    return SuiteConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_suite(args.suite, config)
    if not args.quiet:
        for row in report.rows:
            status = "PASS" if row.passed else "FAIL"
            flag = " [flagged]" if row.flagged else ""
            print(f"[{status}] {row.name}: computed={row.computed:.10g} "
                  f"oracle={row.oracle:.10g} rel_err={row.rel_err:.3g}{flag}")
    s = report.summary
    print(f"suite={report.suite} total={s['total']} passed={s['passed']} "
          f"failed={s['failed']} flagged={s['flagged']}")
    if args.out:
        write_report(report, format=args.format, path=args.out)
        print(f"report written to {args.out} ({args.format})")
    return 0 if s["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
