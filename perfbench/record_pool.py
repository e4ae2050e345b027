"""Record the input pool every workload draws its instances from.

    python3 perfbench/record_pool.py [workload ...]

For each workload and cell, runs the workload's operations once on each of
the first `pool_size` generator seeds and stores the seed, the time taken
(used only to stratify the draw) and the reference answers the checks
compare against: T* for exact-small (cross-checked by the enumeration
oracle), the halting target for certify-mid, the point count and digest for
breakpoints (computed by an independent bitset method).  Workloads not named
keep their recorded pool.  Rerun only when a grid, the pool size or the
generators change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, load_package
from workloads import POOL_FILE, WORKLOADS


def main(names: list[str]) -> int:
    pkg = load_package()
    try:
        with open(POOL_FILE, encoding="utf-8") as handle:
            pool = json.load(handle)
    except FileNotFoundError:
        pool = {}
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name](pool={})
        cells = {}
        for cell in [c for group, _ in workload.groups(tiny=False) for c in group]:
            cells[cell.key] = [
                workload.record(pkg, cell, seed, workdir)
                for seed in range(workload.pool_size_of(cell))
            ]
            print(f"{name} {cell.key}: {sum(e[1] for e in cells[cell.key]):.2f} s", flush=True)
        pool[name] = cells
    shutil.rmtree(workdir)
    if not any(WORK.iterdir()):
        WORK.rmdir()
    with open(POOL_FILE, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for i, (name, cells) in enumerate(sorted(pool.items())):
            handle.write(f"{json.dumps(name)}: {{\n")
            for j, (key, entries) in enumerate(cells.items()):
                rows = ",\n".join("  " + json.dumps(e) for e in entries)
                end = "," if j < len(cells) - 1 else ""
                handle.write(f" {json.dumps(key)}: [\n{rows}\n ]{end}\n")
            handle.write("}" + ("," if i < len(pool) - 1 else "") + "\n")
        handle.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
