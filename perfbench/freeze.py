"""Rewrite ``reference.json``, the verdicts every benchmark pass is checked
against, from the program as it is now.

    PYTHONPATH=src python3 perfbench/freeze.py

Only verdict-level fields are frozen: float moduli may move within the
estimators' tolerances without a verdict changing.  Second-order verdicts
must match the corpus's own frozen ``definiteness`` and ``kernel_trivial``
expectations wherever a fixture has them.
"""

from __future__ import annotations

import json
import sys

import workloads

# The probe's pool: every pass runs all of it, so runs with different
# workload seeds do the same amount of LP work.
PROBE_SEEDS = range(7)


def main() -> int:
    from tiltkit import fixtures
    ref = {"probe": {}, "second-order": {}, "analyze": {}}
    for s in PROBE_SEEDS:
        ref["probe"][str(s)] = workloads.verdict("probe", workloads.probe(s))
    for name, fx in fixtures.CORPUS.items():
        if not fx.instance.f.is_exact:
            continue
        got = workloads.verdict("second-order", workloads.second_order(fx.instance))
        for key in ("definiteness", "kernel_trivial"):
            if fx.expect(key) is not None and fx.expect(key) != got[key]:
                print(f"error: {name} {key} is {got[key]}, the corpus expects "
                      f"{fx.expect(key)}", file=sys.stderr)
                return 1
        ref["second-order"][name] = got
    for path in sorted(workloads.PROBLEMS.glob("*.json")):
        res = workloads.analyze(path)
        ref["analyze"][path.name] = workloads.verdict("analyze", res)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
