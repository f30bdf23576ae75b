"""Record the sha256 of every output file the workloads write.

    python3 perfbench/record_digests.py

Runs each workload's targets once and writes ``perfbench/digests.json``,
which the benchmark then checks every output against.  A file name that
two workloads write (``census_I3*`` by ``census_stats`` and
``census_jobs2``) must get the same digest from both, because ``--jobs``
never changes the output bytes.  Re-record only for a change that is
meant to alter the output files.
"""

import hashlib
import json
import sys

from worker import BENCH, set_up, workloads


def main():
    digests = {}
    for workload in workloads.WORKLOADS:
        out = BENCH / "out" / workload
        out.mkdir(parents=True, exist_ok=True)
        cli, targets = set_up(workload, 0, str(out))
        for target in targets:
            if cli.main(target.argv) != 0:
                sys.exit(f"{workload}: {target.argv} failed")
            for name in target.files:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                if digests.setdefault(name, digest) != digest:
                    sys.exit(f"{workload}: {name} differs between workloads")
    path = BENCH / "digests.json"
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
