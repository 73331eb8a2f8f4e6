"""Write reference.json: per-op reference outcomes for the reference seed.

    python3 perfbench/make_reference.py

Runs one pass of each workload that keeps references (rr-search: the dims;
cli-corpus: SHA-256 of the output bytes) with the reference seed, refuses
to write if any invariant check fails, and stores each value next to its
op's label so that a changed corpus cannot be compared against stale
values.  Regenerate only when the corpus generator changes; the rr-search
dims are cross-checked against the brute-force oracle by selftest.py.
"""

import json
import sys
import tempfile

import run
from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS


def main():
    sys.path.insert(0, str(run.SRC))
    table = {}
    with tempfile.TemporaryDirectory(dir=run.WORKDIR.parent) as tmp:
        for name, cls in WORKLOADS.items():
            if not cls.has_reference:
                continue
            workload = cls(run.fresh_import(run.SRC), REFERENCE_SEED, f"{tmp}/{name}")
            workload.has_reference = False   # judge this pass by its invariants alone
            _, _, outcomes = run.one_pass(workload)
            verdicts = workload.check(outcomes)
            if not all(verdicts):
                print(f"{name}: {verdicts.count(False)} ops fail their checks:", *workload.notes,
                      sep="\n  ", file=sys.stderr)
                return 1
            table[name] = [list(pair) for pair in
                           zip(workload.labels(), workload.reference_values(outcomes))]
    REFERENCE_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(pair) for pair in pairs) + "\n]"
        for name, pairs in table.items()) + "\n}\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.name}: " + ", ".join(f"{k} {len(v)} ops" for k, v in table.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
