"""Regenerate ``reference/<workload>.json``: the expected output of every call.

    python3 bench/make_reference.py [workload ...]

Run it only at a commit whose outputs are trusted: the benchmark counts
every later output that differs from these records as a failed call.
"""

from __future__ import annotations

import json
import os
import sys

from run import WORK, git_sha, worker_env

os.environ.update(worker_env())  # same BLAS threads as the measured runs, before numpy loads

from checks import reference_path  # noqa: E402
from worker import import_cli, run_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    cli = import_cli()
    for name in argv or list(WORKLOADS):
        work = WORK / "reference" / name
        work.mkdir(parents=True, exist_ok=True)
        records = {}
        for call in WORKLOADS[name].reference_calls(work):
            code, out, _ = run_call(cli, call)
            records[call.key] = {"exit": code, "out": out}
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        doc = {"workload": name, "commit": git_sha(), "records": records}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(records)} records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
