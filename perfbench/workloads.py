"""The benchmark workloads.

Each workload is built from a seed in `__init__` (corpus generation and input
files count as set-up), then yields its ops one pass at a time from `ops`.
An op is a zero-argument callable into the package's public API; the runner
times each call and hands the outcomes of a whole pass to `check`, which
returns one verdict per op.  Inputs are built only from Fractions, ints and
JSON text: no workload constructs an `HpScalar`, passes `map_impl` or calls a
private function, so the benchmark keeps working while those change.
"""

import hashlib
import importlib
import io
import json
import random
import shutil
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
MODULES = ("circle", "riemann_roch", "serialize", "cli", "verify")


class Raised:
    """Outcome of an op that raised instead of returning."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"Raised({self.exc!r})"


def fresh_import(src):
    """Import the package from `src` with no module cached, so that set-up
    pays the full import; returns a namespace of the layer modules."""
    for name in [m for m in sys.modules if m == "tropcircle" or m.startswith("tropcircle.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tropcircle")
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"tropcircle was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"tropcircle.{m}") for m in MODULES})


def q(x):
    """Rational in the package's JSON spelling."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Workload:
    name = ""
    has_reference = False

    def __init__(self, tc, seed, workdir):
        self.tc = tc
        self.seed = seed
        self.workdir = Path(workdir)
        self.notes = []          # why ops failed, for the run summary

    def ops(self, wrap=None):
        raise NotImplementedError

    def check(self, outcomes):
        raise NotImplementedError

    def labels(self):
        """One stable label per op, tying reference values to inputs."""
        return []

    def reference_values(self, outcomes):
        """What the reference file stores for one passing pass."""
        return outcomes

    def _reference(self):
        """Stored outcomes for the reference seed: a list, None for other
        seeds, or False when they were made from another corpus, which
        fails every op."""
        if not hasattr(self, "_ref"):
            self._ref = None
            if self.has_reference and self.seed == REFERENCE_SEED:
                try:
                    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[self.name]
                except (OSError, KeyError, ValueError) as exc:
                    self.notes.append(f"no reference: {exc!r}")
                    table = []
                if [label for label, _ in table] == self.labels():
                    self._ref = [value for _, value in table]
                else:
                    self.notes.append(f"{REFERENCE_FILE.name} does not match this corpus")
                    self._ref = False
        return self._ref


# --------------------------------------------------------------- rr-search

# Enumeration-size cap: the product, over the interior support points, of
# the forced-jump range sizes that dim_filtration enumerates.  Draws above
# it are dropped, because an unbounded draw can search for a minute before
# the package's own limit raises.  This cap keeps the corpus desk-sized; it
# does not fix that unbounded search.
ENUM_CAP = 1024
N_MAX = {2: 5, 3: 3, 5: 2}
# Total enumeration work per divisor (summed over the levels and over D and
# -D) is drawn in fixed bands (lo, hi, least interior points), a fixed
# number of distinct divisors per band, prime and degree kind, so the cost
# of a corpus is nearly the same for every seed.  The last band at p = 2
# takes only divisors of two or more interior points, whose search
# enumerates a product of ranges.  Half the divisors have degree zero, so
# both D and -D are searched; the other half have one side of negative
# degree, answered at once.
WORK_BANDS = {2: ((32, 64, 1), (64, 128, 1), (128, 256, 1), (128, 512, 2)),
              3: ((16, 32, 1), (32, 64, 1), (64, 128, 1)),
              5: ((8, 16, 1), (16, 32, 1), (64, 128, 1))}
PER_BAND = 5
# Candidates drawn at each prime for every seed, and more only in the rare
# case that the bands are not full by then, so that set-up costs nearly the
# same for every seed.
DRAWS = {2: 1500, 3: 400, 5: 500}
ROADMAP_DIVISOR = (2, {Fraction(5, 4): Fraction(1), Fraction(3, 2): Fraction(1, 2),
                       Fraction(7, 4): Fraction(-1, 4)}, 4)


def draw_table(rng, p, zero_degree):
    """{k: c} standing for the divisor {k / p**2: c / p**4}, with 1 to 3
    support points and small coefficients; integer units keep the draws
    cheap.  A degree-zero table is balanced at the wrap point, k = p**2."""
    table = {}
    for _ in range(rng.randint(1, 2 if zero_degree else 3)):
        table[rng.randint(p ** 2, p ** 3 - 1)] = rng.choice((-3, -2, -1, 1, 2, 3)) * p ** rng.randint(2, 4)
    if zero_degree:
        table[p ** 2] = -sum(k * c for k, c in table.items() if k != p ** 2) // p ** 2
    return {k: c for k, c in table.items() if c}


def enumeration_size(p, table, n):
    """Assignments the filtration search enumerates at level n for a table
    in the units of draw_table."""
    size = 1
    for k, c in table.items():
        if k == p ** 2:
            continue
        lo = -(c * p ** n // p ** 4)                         # -floor(coeff * p^n)
        cap = sum(j * max(b, 0) for j, b in table.items() if j != k)
        hi = cap * p ** n // (k * p ** 4)                    # floor(cap / rep * p^n)
        if hi < lo:
            return 0
        size *= hi - lo + 1
    return size


def search_work(p, table, n_max):
    """Enumeration sizes summed over n = 0..n_max for D and -D; a side of
    negative degree is answered without a search."""
    work = 0
    for side in (table, {k: -c for k, c in table.items()}):
        if sum(k * c for k, c in side.items()) >= 0:
            work += sum(enumeration_size(p, side, n) for n in range(n_max + 1))
    return work


def draw_search_divisors(rng, p):
    """PER_BAND divisors {rep: coeff} of each degree kind for each work band
    at p, each with an enumeration under the cap; no two are equal or
    negatives of each other, since each entry times both D and -D."""
    n_max = N_MAX[p]
    filled = {(band, zero): [] for band in WORK_BANDS[p] for zero in (False, True)}
    for draws in range(100_000):
        if draws >= DRAWS[p] and all(len(members) == PER_BAND for members in filled.values()):
            return [{Fraction(k, p ** 2): Fraction(c, p ** 4) for k, c in table.items()}
                    for members in filled.values() for table in members]
        zero = rng.random() < 0.5
        table = draw_table(rng, p, zero)
        neg = {k: -c for k, c in table.items()}
        if (not table or any(table in members or neg in members for members in filled.values())
                or max(enumeration_size(p, side, n_max) for side in (table, neg)) > ENUM_CAP):
            continue
        work = search_work(p, table, n_max)
        points = sum(k != p ** 2 for k in table)
        for ((lo, hi, least), kind), members in filled.items():
            if kind == zero and lo <= work < hi and points >= least and len(members) < PER_BAND:
                members.append(table)
                break
    raise RuntimeError(f"work bands at p={p} did not fill")


class RrSearch(Workload):
    """One op is one dim_filtration(d, n) call, for every call rr_check(d,
    n_max) makes: n = 0..n_max on D and on -D."""

    name = "rr-search"
    has_reference = True

    def __init__(self, tc, seed, workdir):
        super().__init__(tc, seed, workdir)
        rng = random.Random(f"rr-search:{seed}")
        drawn = [ROADMAP_DIVISOR]
        for p in sorted(N_MAX):
            drawn.extend((p, table, N_MAX[p]) for table in draw_search_divisors(rng, p))
        self.entries = []        # (divisor, -divisor, n_max, text)
        for p, table, n_max in drawn:
            d = tc.circle.divisor(p, table)
            text = f"p={p} " + " ".join(f"{q(r)}:{q(c)}" for r, c in sorted(table.items()))
            self.entries.append((d, -d, n_max, text))
        self.reports = None      # rr_check verdicts, computed once outside timing

    def ops(self, wrap=None):
        rr = self.tc.riemann_roch
        for d, neg, n_max, _ in self.entries:
            for side in (d, neg):
                for n in range(n_max + 1):
                    yield partial(rr.dim_filtration, side, n)

    def labels(self):
        return [f"{text} {sign}D n={n}" for _, _, n_max, text in self.entries
                for sign in "+-" for n in range(n_max + 1)]

    def check(self, outcomes):
        if self.reports is None:
            self.reports = []
            for d, _, n_max, text in self.entries:
                try:
                    self.reports.append(self.tc.riemann_roch.rr_check(d, n_max))
                except Exception as exc:  # a raising verdict fails its ops below
                    self.notes.append(f"rr_check raised on {text}: {exc!r}")
                    self.reports.append(None)
        ok = [not isinstance(o, Raised) for o in outcomes]
        pos = 0
        for (d, neg, n_max, text), report in zip(self.entries, self.reports):
            for side, want in ((d, report and report.report.dims),
                               (neg, report and report.report_neg.dims)):
                span = range(pos, pos + n_max + 1)
                pos += n_max + 1
                dims = tuple(outcomes[k] for k in span)
                good = (all(ok[k] for k in span)
                        and report is not None and report.ok
                        and all(a <= b for a, b in zip(dims, dims[1:]))
                        and (side.degree() >= 0 or not any(dims))
                        and dims == tuple(want))
                if not good:
                    self.notes.append(f"{text}: dims {dims}, rr_check "
                                      f"{'raised' if report is None else report.ok}")
                    for k in span:
                        ok[k] = False
        ref = self._reference()
        if ref is False:
            ok = [False] * len(ok)
        elif ref is not None:
            for k, (got, want) in enumerate(zip(outcomes, ref)):
                if got != want:
                    ok[k] = False
                    self.notes.append(f"op {k}: dim {got!r}, reference {want}")
        return ok


# ------------------------------------------------------------- verify-laws

VERIFY_COUNT = 1000


def law_case(gen, check, rng):
    return check(gen(rng))


class VerifyLaws(Workload):
    """One op is one law-check case, suite.gen(rng) then suite.check(case),
    over every entry of verify.SUITES, seeded as `tropcircle verify --seed
    S --count 1000` seeds them."""

    name = "verify-laws"

    def __init__(self, tc, seed, workdir):
        super().__init__(tc, seed, workdir)
        self.suites = tuple(tc.verify.SUITES)

    def ops(self, wrap=None):
        for suite in self.suites:
            rng = random.Random(f"{suite.name}:{self.seed}")
            gen, check = suite.gen, suite.check
            if wrap is not None:
                gen = wrap(gen, "verify", f"verify.SUITES.{suite.name}.gen")
                check = wrap(check, "verify", f"verify.SUITES.{suite.name}.check")
            for _ in range(self.cases(suite)):
                yield partial(law_case, gen, check, rng)

    @staticmethod
    def cases(suite):
        return max(0, int(VERIFY_COUNT * suite.scale))

    def check(self, outcomes):
        ok = [o is True for o in outcomes]
        if not all(ok):
            self.notes.append(f"{ok.count(False)} law checks did not return True")
        return ok


# -------------------------------------------------------------- cli-corpus

CLI_DOCS = 480
SMALL_PRIMES = (2, 3, 5)
BIG_PRIMES = (10007, 1000003, 1000000007)
# doc kinds in a repeating cycle; every fourth divisor and jacobian doc uses
# a big prime, cycling through BIG_PRIMES
CLI_CYCLE = ("legendre", "divisor", "jacobian", "rr")


def circle_data(rng, p):
    """Kinks, slopes and anchor of a random circle function on [1, p].

    The last kink sits at p - p**-a so that the slope solved from the
    closure condition stays in Z[1/p].  At a big prime the number of kinks
    is fixed, because the cost of each Z[1/p] operation there is dominated
    by primality testing, and a fixed count keeps the big-prime tail's
    cost the same for every seed."""
    m = rng.randint(1, 4) if p in SMALL_PRIMES else 3
    if p in SMALL_PRIMES:
        a = rng.randint(1 if p == 2 else 0, 2)
        last = p - Fraction(1, p ** a)
        grid = p * p
        cells = range(grid + 1, int(last * grid))
        others = sorted(rng.sample(cells, min(m - 1, len(cells))))
        kinks = [Fraction(i, grid) for i in others] + [last]
        slopes = [Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2)) for _ in kinks]
    else:
        kinks = [Fraction(k) for k in sorted(rng.sample(range(2, p - 1), m - 1))] + [Fraction(p - 1)]
        slopes = [Fraction(rng.randint(-9, 9), p ** rng.randint(0, 1)) for _ in kinks]
    bounds = [Fraction(1), *kinks, Fraction(p)]
    partial_sum = sum(s * (b - a) for s, a, b in zip(slopes, bounds, bounds[1:]))
    slopes.append(-partial_sum / (bounds[-1] - bounds[-2]))
    anchor = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
    return kinks, slopes, anchor


def circle_doc(p, kinks, slopes, anchor):
    return {"p": p, "domain": ["1", str(p)], "anchor": q(anchor),
            "kinks": [q(k) for k in kinks], "slopes": [q(s) for s in slopes], "convex": False}


def divisor_doc(p, table):
    return {"p": p, "support": [{"point": q(r), "coeff": q(c)} for r, c in sorted(table.items()) if c]}


def principal_table(p, kinks, slopes):
    """Divisor of the function: slope jumps at the kinks, s_0 - p s_m at 1."""
    table = {Fraction(1): slopes[0] - p * slopes[-1]}
    for k, left, right in zip(kinks, slopes, slopes[1:]):
        table[k] = right - left
    return table


def random_table(rng, p):
    table = {}
    for _ in range(rng.randint(1, 3) if p in SMALL_PRIMES else 2):
        if p in SMALL_PRIMES:
            rep = Fraction(rng.randint(p ** 2, p ** 3 - 1), p ** 2)
        else:
            rep = Fraction(rng.randint(1, p - 1))
        table[rep] = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), p ** rng.randint(0, 1))
    return table


def polygon_doc(rng):
    """A polygon whose hull keeps many vertices, plus candidates the
    reduction must drop: lower points at hull abscissae and points under
    the chords."""
    p = rng.choice((None, 2, 3, 5))
    unit = Fraction(1) if p is None else Fraction(1, p ** rng.randint(0, 1))
    size = rng.randint(12, 24)
    x = Fraction(rng.randint(-4, 4))
    y = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
    slope = Fraction(-rng.randint(1, 4), 8)
    pts = []
    for _ in range(size):
        step = unit * rng.randint(1, 3)
        pts.append((x, y))
        if step > unit:
            pts.append((x + unit, y + slope * unit - Fraction(1, 8)))
        if rng.random() < 0.3:
            pts.append((x, y - Fraction(rng.randint(1, 5), 4)))
        x, y = x + step, y + slope * step
        slope -= Fraction(rng.randint(1, 5), 8)
    rng.shuffle(pts)
    return {"p": p, "scale": "1", "vertices": [[q(a), q(b)] for a, b in pts]}


# one cli-corpus file: `principal` is True for the divisor of a function
CliDoc = namedtuple("CliDoc", "kind argv label data principal")


def cli_call(cli, argv):
    """(exit code, stdout bytes) of one in-process CLI call; an argument
    error exits through SystemExit, which counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


class CliCorpus(Workload):
    """One op is one in-process cli.main([...]) call on a seeded JSON file."""

    name = "cli-corpus"
    has_reference = True

    def __init__(self, tc, seed, workdir):
        super().__init__(tc, seed, workdir)
        rng = random.Random(f"cli-corpus:{seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.docs = []
        seen = {"divisor": 0, "jacobian": 0}
        for i in range(CLI_DOCS):
            kind = CLI_CYCLE[i % len(CLI_CYCLE)]
            p = rng.choice(SMALL_PRIMES)
            if kind in seen:
                k = seen[kind]
                seen[kind] += 1
                if k % 4 == 3:
                    p = BIG_PRIMES[(k // 4) % len(BIG_PRIMES)]
            flags, principal = ["--format", "json"], None
            if kind == "legendre":
                doc = polygon_doc(rng)
            elif kind == "divisor":
                doc = circle_doc(p, *circle_data(rng, p))
            elif kind == "jacobian":
                # principal and random in turn, among the big-prime files too
                if (k + k // 4) % 2 == 0:
                    kinks, slopes, _ = circle_data(rng, p)
                    table, principal = principal_table(p, kinks, slopes), True
                else:
                    table = random_table(rng, p)
                doc = divisor_doc(p, table)
            else:
                table = {rng.choice((Fraction(1), Fraction(rng.randint(p ** 2, p ** 3 - 1), p ** 2))):
                         Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), p ** rng.randint(0, 1))}
                doc = divisor_doc(p, table)
                flags = ["--n-max", str(rng.randint(2, 3)), "--format", rng.choice(("json", "csv", "text"))]
            if doc.get("p") is not None and rng.random() < 0.5:
                flags += ["--p", str(doc["p"])]
            text = json.dumps(doc, indent=1)
            fname = f"{i:04d}-{kind}.json"
            (self.workdir / fname).write_text(text, encoding="utf-8")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            label = " ".join([kind, fname, *flags, digest])
            self.docs.append(CliDoc(kind, [kind, str(self.workdir / fname), *flags], label, doc, principal))
        self.digests = None      # output digests of the first pass

    def ops(self, wrap=None):
        cli = self.tc.cli
        for doc in self.docs:
            yield partial(cli_call, cli, doc.argv)

    def labels(self):
        return [doc.label for doc in self.docs]

    def reference_values(self, outcomes):
        return [hashlib.sha256(out).hexdigest() for _, out in outcomes]

    def check(self, outcomes):
        first = self.digests is None
        if first:
            self.digests = []
        ref = self._reference()
        ok = []
        for k, (doc, outcome) in enumerate(zip(self.docs, outcomes)):
            fault = self._fault(k, doc, outcome, first, ref)
            if fault:
                self.notes.append(f"{doc.label}: {fault}")
            ok.append(fault is None)
        return ok

    def _fault(self, k, doc, outcome, first, ref):
        raised = isinstance(outcome, Raised)
        digest = None if raised else hashlib.sha256(outcome[1]).hexdigest()
        if first:
            self.digests.append(digest)
        if raised:
            return repr(outcome)
        code, out = outcome
        if code != 0:
            return f"exit code {code}"
        if digest != self.digests[k]:
            return "output differs from the first pass"
        if ref is False or (ref is not None and digest != ref[k]):
            return "output differs from the reference"
        if first and not self._semantic_ok(doc, out):
            return "output fails its semantic check"
        return None

    def _semantic_ok(self, doc, out):
        """Checks outside the timed region that do not need a reference."""
        if doc.kind == "rr":
            return True  # exit 0 is the PASS verdict
        ser, circle = self.tc.serialize, self.tc.circle
        try:
            payload = json.loads(out)
            if doc.kind == "legendre":
                return payload["roundtrip"] is True
            if doc.kind == "divisor":
                return (payload["degree"] == "0" and payload["chi"] == 0
                        and payload["ordersSumZero"] is True)
            # jacobian: the class is (degree, chi), principal exactly when
            # nothing obstructs, and the witness's divisor is the input
            degree = sum(Fraction(e["point"]) * Fraction(e["coeff"]) for e in doc.data["support"])
            if payload["degree"] != q(degree) or ("degree" in payload["obstructions"]) != (degree != 0):
                return False
            if payload["principal"] != (not payload["obstructions"]):
                return False
            if doc.principal and not payload["principal"]:
                return False
            return (not payload["principal"] or circle.divisor_of(
                ser.circle_from_json(payload["witness"])) == ser.divisor_from_json(doc.data))
        except (ValueError, KeyError, TypeError):
            return False


WORKLOADS = {w.name: w for w in (RrSearch, VerifyLaws, CliCorpus)}
