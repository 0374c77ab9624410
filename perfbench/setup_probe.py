"""Set-up probe: import evoctl and assemble one workload's systems.

Run in a fresh interpreter by run.py, which times the whole process:
that is the set-up a user pays on every CLI run, first LAPACK calls
included.  Prints one JSON line with the import and assembly times.

    python3 perfbench/setup_probe.py <workload> '<params json>' ['<sizes json>']
"""

import json
import sys
import time

start = time.perf_counter()
import evoctl  # noqa: E402, F401

import_s = time.perf_counter() - start


def main():
    from workloads import assemble

    name, params = sys.argv[1], json.loads(sys.argv[2])
    sizes = json.loads(sys.argv[3]) if len(sys.argv) > 3 else None
    start = time.perf_counter()
    assemble(name, params, sizes)
    print(json.dumps({"import_s": import_s, "assemble_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
