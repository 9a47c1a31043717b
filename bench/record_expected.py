"""Record the expected stdout of every job any seed can produce, as digests.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 bench/record_expected.py

It writes ``bench/expected.json``, the table ``worker.py`` checks every job
against.  Re-record only when a change is meant to alter the CLI's output.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads
from worker import digest, import_sgfact

HERE = Path(__file__).resolve().parent


def main() -> int:
    cli = import_sgfact()
    jobs: dict[str, str] = {}
    elements: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=".") as eq_dir:
        workloads.write_equations(eq_dir)
        for job in workloads.all_jobs(eq_dir):
            code, out = cli.run(list(job.argv))
            if code != 0:
                print(f"exit {code}: {job.key}", file=sys.stderr)
                return 1
            prefix, sep, element = job.key.partition(" --element ")
            if sep:
                elements.setdefault(prefix, {})[element] = digest(out)
            else:
                jobs[job.key] = digest(out)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "elements": elements}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(jobs) + sum(map(len, elements.values()))} expected outputs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
