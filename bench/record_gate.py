"""Records the output digests in ``gate.json`` for the default seed.

Run from the repository root, only when the program's outputs are meant to
change (the gate exists to catch changes that are not):

    python3 bench/record_gate.py

For ``verify-curved4`` it stores the sha256 of the ``--out`` report bytes;
for the star workloads, the shortened sha256 of the canonical string of each
product, by position, for the first ``RECORDED_PRODUCTS`` products of
``star-fresh-curved2`` and every pair of ``star-pool-flat4``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from worker import import_package  # noqa: E402
from workloads import (DEFAULT_SEED, GATE_PATH, StarFreshCurved2,  # noqa: E402
                       StarPoolFlat4, VerifyCurved4, digest)

RECORDED_PRODUCTS = 300


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    fl = import_package()
    gate = {"default_seed": DEFAULT_SEED}
    for cls in (VerifyCurved4, StarFreshCurved2, StarPoolFlat4):
        gate[cls.name] = {}
        for smoke in (True, False):
            wl = cls(DEFAULT_SEED, smoke, root)
            state = wl.setup(fl)
            if cls is VerifyCurved4:
                rc, data = wl.op(state, 0)
                if rc != 0:
                    raise SystemExit("verify failed; not recording")
                rec = hashlib.sha256(data).hexdigest()
            elif cls is StarFreshCurved2:
                xs = wl.inputs(fl)[:wl.limit if smoke else RECORDED_PRODUCTS]
                rec = [digest(str(wl.op(state, x))) for x in xs]
            else:
                xs = range(wl.pool_size ** 2)
                rec = [digest(str(wl.op(state, x))) for x in xs]
            gate[cls.name][wl.size] = rec
            print(cls.name, wl.size, "recorded", file=sys.stderr)
    with open(GATE_PATH, "w", encoding="utf-8") as fh:
        json.dump(gate, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
