"""Record the result digests of the first passes of every workload at
its default seed into digests.json. Run it only on a commit whose
outputs are known good; run.py checks later runs against the file.

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PASSES = 24


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as workdir:
        for name, workload in WORKLOADS.items():
            seed = DEFAULT_SEEDS[name]
            digests = []
            for k in range(PASSES):
                prep = workload.prepare(seed, k, workdir)
                res = workload.finish(prep, workload.run(prep))
                if res.failed:
                    print(f"{name} pass {k}: {res.failed} failed ops", file=sys.stderr)
                    return 1
                digests.append(res.digest)
            out[name] = {"seed": seed, "passes": digests}
            print(f"{name}: {PASSES} passes recorded", file=sys.stderr)
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
