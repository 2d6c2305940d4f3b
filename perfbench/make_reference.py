#!/usr/bin/env python3
"""Write reference.json from saved standard outputs of run.py.

    python3 perfbench/make_reference.py OUTPUT...

Each OUTPUT file holds what one `run.py --trace 0` run printed.  Its `record`
line becomes the reference record of that workload and seed, and the first
`env` line the reference environment.  run.py then flags every later run
whose outputs or environment differ from these.
"""

import json
import sys
from pathlib import Path


def main(paths: list[str]) -> int:
    ref = {"environment": None, "records": {}}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.startswith("record "):
                rec = json.loads(line[len("record "):])
                ref["records"].setdefault(rec["workload"], {})[str(rec["seed"])] = rec["inputs"]
            elif line.startswith("env ") and ref["environment"] is None:
                ref["environment"] = json.loads(line[len("env "):])
    if ref["environment"] is None:
        print("error: no run.py output among the files given", file=sys.stderr)
        return 2
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
