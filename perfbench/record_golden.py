"""Record the golden accuracy values of every workload.

Run from the root of a source checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

Each workload runs once at the package's default seed; its resolved
parameters are stored beside its values, so a run with other parameters is
refused instead of compared against stale figures.
"""

import json
import sys

from run import GOLDEN, OUT, import_program
from workloads import GOLDEN_SEED, WORKLOADS


def main():
    import_program()
    OUT.mkdir(exist_ok=True)
    entries = {}
    for name, cls in WORKLOADS.items():
        workload = cls(str(OUT))
        out = workload.run(workload.build(GOLDEN_SEED), GOLDEN_SEED)
        if out.failures:
            print(f"{name}: {out.failures}", file=sys.stderr)
            return 1
        entries[name] = {"params": workload.params(), "values": out.values}
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "workloads": entries},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
