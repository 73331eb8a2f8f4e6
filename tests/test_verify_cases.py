"""The case stream of every `verify` suite, pinned draw by draw.

A `verify` report prints only `ok <suite> cases=N` lines when every law
holds, so its SHA-256 pins the verdicts and the counts, not the cases the
laws ran on.  This table does: for each suite and seed it holds the SHA-256
(first 16 hex digits) of the cases the suite's generator draws at
`count` 1000, each printed by `verify._show` on its own line, drawn from the
rng that `verify.run_suite` seeds.  `_show` names the slope group of a
polygon or function outside Z, so a change of group alone changes a row.
A generator rewritten for speed must
make the same rng calls in the same order and build the same values, and so
keep every row.

Every integer draw of the generators goes through `verify._draw`; the tests
below hold it to `random.Random.randint` and `choice` draw by draw, and
keep the slower stdlib calls out of `verify.py`.

`PYTHONPATH=src python tests/test_verify_cases.py` prints the table, writes
to stderr one `name: old -> new` line for each row that differs from
DIGESTS (old is None for a new row), then the count, and exits 1 when any
row differs, 0 otherwise.
"""

import ast
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from tropcircle import verify
from tropcircle.piecewise import ZZ, SlopeGroup, piecewise_affine
from tropcircle.polygons import newton_polygon

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
    'gamma-action seed 0': '3f38527553a50c57',
    'gamma-action seed 1': 'bbefe86d509acc5f',
    'germ-axioms seed 0': '1667403d2a7e3235',
    'germ-axioms seed 1': '0f71b7a078cf90e5',
    'h0-membership seed 0': '9cde393a1de2b12a',
    'h0-membership seed 1': '506574040bf5d198',
    'hp-scalars seed 0': 'cf8f0ace64acf9d5',
    'hp-scalars seed 1': 'c506fa4dafd95fa9',
    'jacobian seed 0': '67113ba27ba78e81',
    'jacobian seed 1': '3bc220e6bf73cab5',
    'legendre-duality seed 0': 'ceb96b35b7abde87',
    'legendre-duality seed 1': '4d84b0220a2b3af0',
    'legendre-roundtrip seed 0': '7426828114cf22b9',
    'legendre-roundtrip seed 1': '4c0851acdedf07da',
    'lex-axioms seed 0': 'be13c40fbe4bf793',
    'lex-axioms seed 1': '421c9ad9b70d8e43',
    'pa-germ-compat seed 0': 'beca0c9086882741',
    'pa-germ-compat seed 1': '5470876c8fb7282e',
    'pa-pointwise seed 0': '5c179720772b0587',
    'pa-pointwise seed 1': '76a6e28137f9d85b',
    'polygon-axioms seed 0': '09e8b6945fe4effb',
    'polygon-axioms seed 1': '5fb29951d7696536',
    'polygon-cancellation seed 0': 'cb2dbce7209bbe84',
    'polygon-cancellation seed 1': 'fe119677af8ba945',
    'rmax-axioms seed 0': 'f762b2732e1f4b9a',
    'rmax-axioms seed 1': '005e8505c839ab27',
}


def test_a_slope_group_other_than_z_is_printed():
    """A polygon or function prints as its repr in Z and names its group
    otherwise, so two cases that differ only in the group print apart."""
    half = SlopeGroup(2, Fraction(1, 2))
    pairs = [(newton_polygon(ZZ, [(1, 0)]), newton_polygon(half, [(1, 0)])),
             (piecewise_affine(ZZ, 0, 4, 0, [], [1]), piecewise_affine(SlopeGroup(3), 0, 4, 0, [], [1]))]
    for in_z, other in pairs:
        assert in_z != other and repr(in_z) == repr(other)
        assert verify._show(in_z) == repr(in_z)
        assert verify._show(other) == f"{other!r} in {other.group}"
    assert verify._show(pairs[0][1]) == "NewtonPolygon((1, 0)) in 1/2*Z[1/2]"


# span widths 2**k - 1, 2**k and 2**k + 1 from 1 to past 2**64, where the
# bit count of a draw changes, and any width up to 2**200
WIDTHS = st.one_of(
    st.integers(0, 70).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1])),
    st.integers(1, 2 ** 200),
).filter(lambda n: n > 0)


P61 = 2 ** 61 - 1


def same_next_bits(mine, stdlib):
    """Both generators are in the same state after the draw."""
    return mine.getrandbits(64) == stdlib.getrandbits(64)


@given(st.integers(0, 2 ** 64), st.integers(-2 ** 70, 2 ** 70), WIDTHS)
@example(0, 5, 1)            # hi == lo
@example(0, -12, 25)         # gen_fraction's numerator
@example(1, -2 ** 65, 2 ** 66 + 1)
# the span `_sample_range` draws from in gen_circle at p = 2**61 - 1, a = 0
@example(2, P61 ** 2 + 1, P61 ** 3 - 2 * P61 ** 2 - 1)
def test_draw_is_randint(seed, lo, width):
    hi = lo + width - 1
    mine, stdlib = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert verify._draw(mine, lo, hi) == stdlib.randint(lo, hi)
        assert same_next_bits(mine, stdlib)


@given(st.integers(0, 2 ** 64), st.integers(1, 70))
@example(0, 1)
@example(0, 3)
def test_pick_by_draw_is_choice(seed, n):
    seq = tuple(range(-n, 0))
    mine, stdlib = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert seq[verify._draw(mine, 0, len(seq) - 1)] == stdlib.choice(seq)
        assert same_next_bits(mine, stdlib)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10007, P61])
def test_gen_circle_draws_as_randint_draws(monkeypatch, p):
    """gen_circle, the one generator that reaches `_sample_range`, draws the
    same functions through `_draw` as through Random.randint, at small
    primes and past sys.maxsize."""
    mine = random.Random(f"circle:{p}")
    drawn = [verify._show(verify.gen_circle(mine, p)) for _ in range(200)]
    monkeypatch.setattr(verify, "_draw", lambda rng, lo, hi: rng.randint(lo, hi))
    stdlib = random.Random(f"circle:{p}")
    assert drawn == [verify._show(verify.gen_circle(stdlib, p)) for _ in range(200)]
    assert same_next_bits(mine, stdlib)


class StdlibDraws(ast.NodeVisitor):
    """The place, as module.function, and the name of every randint,
    randrange, choice and getrandbits call in one module."""

    NAMES = ("randint", "randrange", "choice", "getrandbits")

    def __init__(self, module):
        self.stack, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in self.NAMES:
            self.found.append((".".join(self.stack), node.func.attr))
        self.generic_visit(node)


def test_integer_draws_only_through_draw():
    """verify.py draws bits only in `_draw`, and calls no randint,
    randrange or choice, so no generator takes the slower stdlib path."""
    finder = StdlibDraws("verify")
    finder.visit(ast.parse(Path(verify.__file__).read_text()))
    assert finder.found == [("verify._draw", "getrandbits")] * 2


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
