"""Write expected.json: F, the blocks and rad_dim at every tested prime for
each scheme of the large-n and high-rank workloads at seed 0 (generator
labelling, VerifyOptions(seed=0)).  Other seeds relabel the points, and
run.py requires the same values back.

    python3 perfbench/make_expected.py
"""

import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cellalg  # noqa: E402


def main() -> None:
    table = {}
    for workload in workloads.FAMILIES:
        schemes = workloads.build(cellalg, workload, 0)
        table[workload] = {
            sid: workloads.expected_record(cellalg.verify_scheme(sid, scheme))
            for sid, scheme in schemes.items()
        }
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
