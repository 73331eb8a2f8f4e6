"""The case stream of every `verify` suite, pinned draw by draw.

A `verify` report prints only `ok <suite> cases=N` lines when every law
holds, so its SHA-256 pins the verdicts and the counts, not the cases the
laws ran on.  This table does: for each suite and seed it holds the SHA-256
(first 16 hex digits) of the cases the suite's generator draws at
`count` 1000, each printed by `verify._show` on its own line, drawn from the
rng that `verify.run_suite` seeds.  A generator rewritten for speed must
make the same rng calls in the same order and build the same values, and so
keep every row.

`PYTHONPATH=src python tests/test_verify_cases.py` prints the table, writes
to stderr one `name: old -> new` line for each row that differs from
DIGESTS (old is None for a new row), then the count, and exits 1 when any
row differs, 0 otherwise.
"""

import hashlib
import random
import sys

import pytest

from tropcircle import verify

COUNT = 1000
SEEDS = (0, 1)


def case_lines(suite, seed, count=COUNT):
    """The cases of suite at (seed, count), one `_show` line each, drawn as
    `verify.run_suite` draws them."""
    rng = random.Random(f"{suite.name}:{seed}")
    for _ in range(max(0, int(count * suite.scale))):
        yield verify._show(suite.gen(rng))


def stream_digest(suite, seed, count=COUNT) -> str:
    h = hashlib.sha256()
    for line in case_lines(suite, seed, count):
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


ROWS = {f"{suite.name} seed {seed}": (suite, seed) for suite in verify.SUITES for seed in SEEDS}

DIGESTS = {
    'circle-conservation seed 0': '029cd4a59e819a6e',
    'circle-conservation seed 1': '15051f75f5a2f688',
    'circle-norm seed 0': 'd32a6946f993d9c2',
    'circle-norm seed 1': '2beda164fdb14112',
    'circle-recut seed 0': '43cd2d7ad2952650',
    'circle-recut seed 1': 'a61218ef28219326',
    'gamma-action seed 0': '18d14aeb7044af46',
    'gamma-action seed 1': 'b283ed92f64ba8d9',
    'germ-axioms seed 0': '1667403d2a7e3235',
    'germ-axioms seed 1': '0f71b7a078cf90e5',
    'h0-membership seed 0': '9cde393a1de2b12a',
    'h0-membership seed 1': '506574040bf5d198',
    'hp-scalars seed 0': 'cf8f0ace64acf9d5',
    'hp-scalars seed 1': 'c506fa4dafd95fa9',
    'jacobian seed 0': '67113ba27ba78e81',
    'jacobian seed 1': '3bc220e6bf73cab5',
    'legendre-duality seed 0': 'c741847d3f4ed4b7',
    'legendre-duality seed 1': 'e45188b685b459c0',
    'legendre-roundtrip seed 0': '75ecd4fecbada61c',
    'legendre-roundtrip seed 1': '4f1f33a41f62dd49',
    'lex-axioms seed 0': 'be13c40fbe4bf793',
    'lex-axioms seed 1': '421c9ad9b70d8e43',
    'pa-germ-compat seed 0': '3eb8f5f8458ba561',
    'pa-germ-compat seed 1': '46cf2a36864cc883',
    'pa-pointwise seed 0': '99a159d675d4c126',
    'pa-pointwise seed 1': 'd93815e8c263d03d',
    'polygon-axioms seed 0': '006be73358f964e5',
    'polygon-axioms seed 1': '0d7bf76310ed8d52',
    'polygon-cancellation seed 0': '4c9ada8de15e79ca',
    'polygon-cancellation seed 1': '8fe5ad7251dfa816',
    'rmax-axioms seed 0': 'f762b2732e1f4b9a',
    'rmax-axioms seed 1': '005e8505c839ab27',
}


def test_every_suite_has_a_digest():
    assert sorted(DIGESTS) == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_case_stream_is_unchanged(name):
    assert stream_digest(*ROWS[name]) == DIGESTS[name]


if __name__ == "__main__":
    rows = {name: stream_digest(*ROWS[name]) for name in sorted(ROWS)}
    sys.stdout.write("DIGESTS = {\n")
    for name, row in rows.items():
        sys.stdout.write(f"    {name!r}: {row!r},\n")
    sys.stdout.write("}\n")
    changed = [name for name, row in rows.items() if DIGESTS.get(name) != row]
    for name in changed:
        sys.stderr.write(f"{name}: {DIGESTS.get(name)!r} -> {rows[name]!r}\n")
    sys.stderr.write(f"{len(changed)} of {len(rows)} rows differ from DIGESTS\n")
    sys.exit(1 if changed else 0)
