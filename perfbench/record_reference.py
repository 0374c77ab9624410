"""Record the artifact fingerprints that the correctness gate compares with.

    python3 perfbench/record_reference.py

Runs every workload's invocations once for every combination of the
parameters its seed can draw, against the evoctl sources in src/, and
writes perfbench/reference.json from scratch.  Run it only on a commit
whose outputs are known to be right: the recorded fingerprints define
correct output.
"""

import itertools
import json
import shutil
import sys

import gate
import run
from workloads import DRAWN, FREQS, MODES, WORKLOADS, invocations, reference_key

CHOICES = {"freq": FREQS, "mode": MODES}


def record(name, sizes=None) -> dict:
    """Fingerprints of every parameter combination of one workload."""
    out = {}
    keys = DRAWN[name]
    for values in itertools.product(*(CHOICES[key] for key in keys)):
        params = dict(zip(keys, values))
        workdir = run.WORK / "reference" / name
        invs = invocations(name, params, workdir, sizes)
        run.fresh_dirs(invs)
        entry = {}
        for inv in invs:
            # the fingerprinted artifacts do not depend on EVOCTL_SEED
            _, code, _, text = run.spawn(inv, run.child_env(1))
            print(f"{reference_key(name, params)} {inv.command}: exit {code}, "
                  f"{text.strip().splitlines()[-1] if text.strip() else ''}",
                  file=sys.stderr)
            entry[inv.command] = gate.fingerprints(inv.command, inv.outdir)
        out[reference_key(name, params)] = entry
        shutil.rmtree(workdir)
    return out


def main():
    reference = {key: value for name in WORKLOADS for key, value in record(name).items()}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
