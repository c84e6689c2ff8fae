"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_goldens.py

Runs the seed-independent part of every workload once at full size and
writes ``perfbench/goldens.json``: per-trial digests of the discovery
logs (the structural log for any seed, the full log for seed 5005),
per-block digests of the criterion-2 identification results, and the
values of the fixed DCN operations.  Re-record only at a commit whose
outputs are known good; the checks exist to catch a change that moves
them.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402


def main() -> int:
    disc = w.Discovery(w.FULL)
    inputs = disc.setup(w.STRUCTURE_SEED)
    results = [op.call() for op in disc.ops(inputs)]
    discovery = {"structural_log": [w._sha(w._structural_log(r)) for r in results],
                 "log_seed_5005": [w._sha(r.interventions) for r in results]}

    graphs = w.criterion2_graphs()
    blocks = []
    for b in range(len(graphs) // w.ID_BLOCK):
        rows = []
        for g in graphs[b * w.ID_BLOCK:(b + 1) * w.ID_BLOCK]:
            for x, y in itertools.permutations(g.names(), 2):
                identified, text, _witness = w._identify(g, x, y)
                rows.append([identified, text])
        blocks.append(w._sha(rows))

    mix = w.DcnMix(w.FULL)
    dcn = {}
    for op in mix.ops(mix.setup(0)):
        if op.key[0] != "cdcn":
            dcn[json.dumps(list(op.key))] = [t.tolist() for t in w._tables(op.call())]

    out = {"discovery": discovery, "id_sweep": {"block_digests": blocks}, "dcn_mix": dcn}
    w.GOLDENS.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {w.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
