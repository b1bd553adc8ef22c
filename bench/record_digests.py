"""Record the stdout SHA-256 of every CLI item the cli-configs workload can draw.

Run from the repository root on the commit whose output is the reference:

    python3 bench/record_digests.py

It runs each item through the same runner the workload uses, writes
bench/cli_digests.json, and fails if any item crashes or exits with another
code than the one it expects.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import child_env
from workloads import DIGESTS_PATH, ROOT, Runner, cli_items, cli_pool


def main() -> int:
    digests = {}
    bad = []
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        runner = Runner(None, workdir)
        runner.env = child_env()
        for item in cli_items(sorted(cli_pool()), digests={}):
            code, digest, crashed = runner.run(item)
            if crashed or code != item.params["exit"]:
                bad.append(f"{item.params['id']}: exit {code}, expected {item.params['exit']}")
            digests[item.params["id"]] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
