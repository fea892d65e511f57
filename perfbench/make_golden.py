#!/usr/bin/env python3
"""Write the golden reports in golden/ from the program in this checkout.

    python3 perfbench/make_golden.py [--workload NAME ...]

The goldens pin the program's reports at the commit that added the
benchmark; regenerate them only when a workload's input pool changes,
never to make a changed program pass.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys

from envinfo import pin_blas_threads
from run import SRC, WORK_DIR, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from locclab import cli

    import checks
    import workloads
    from layers import run_cli

    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in args.workload:
        work = WORK_DIR / f"golden-{workload}"
        try:
            cases = {}
            for op in workloads.golden_cases(workload, work):
                _, code, text = run_cli(cli, op)
                report = json.loads(text) if code == 0 else None
                if report is None or report["passed"] is not True:
                    print(f"error: {workload} case {op['key']} failed ({code!r})", file=sys.stderr)
                    return 1
                cases[op["key"]] = report
        finally:
            shutil.rmtree(work, ignore_errors=True)
        blob = json.dumps({"workload": workload, "cases": cases}, sort_keys=True, separators=(",", ":"))
        with open(checks.golden_path(workload), "wb") as fh:
            fh.write(gzip.compress(blob.encode("utf-8"), mtime=0))
        print(f"{workload}: {len(cases)} golden reports -> {checks.golden_path(workload).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
