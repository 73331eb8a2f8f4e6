"""Self-test of the benchmark; not part of the timed runs.

    python3 -m pytest perfbench/selftest.py -q

Checks that the reference seed passes, that the stored rr-search dims agree
with the brute-force oracle in tests/dim_oracle.py, that deliberately wrong
package functions make the matching workload fail, that traced runs are
deterministic and leave the package untouched, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, VerifyLaws  # noqa: E402

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.ROOT / "tests"))


def build(name, tmp_path, seed=REFERENCE_SEED):
    return WORKLOADS[name](run.fresh_import(run.SRC), seed, tmp_path / name)


def one_pass_fail_ratio(workload):
    _, _, info = run.measure(workload, 0)
    return info["fail_ratio"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_seed_passes(name, tmp_path):
    workload = build(name, tmp_path)
    assert one_pass_fail_ratio(workload) == 0, workload.notes
    assert not workload.notes


def test_rr_reference_dims_match_oracle(tmp_path):
    from dim_oracle import max_dim_minimal, oracle_budget

    workload = build("rr-search", tmp_path)
    dims = [dim for _, dim in json.loads(REFERENCE_FILE.read_text())["rr-search"]]
    cases = [(side, n) for d, neg, n_max, _ in workload.entries
             for side in (d, neg) for n in range(n_max + 1)]
    assert len(cases) == len(dims)
    checked = 0
    for (side, n), dim in zip(cases, dims):
        if oracle_budget(side) * side.p ** n <= 200:
            assert max_dim_minimal(side, n) == dim, (side, n)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("seed", [REFERENCE_SEED, 1])
def test_wrong_dim_filtration_fails_rr_search(seed, tmp_path, monkeypatch):
    workload = build("rr-search", tmp_path, seed)
    rr = workload.tc.riemann_roch
    right = rr.dim_filtration
    monkeypatch.setattr(rr, "dim_filtration", lambda d, n: right(d, n) + 1)
    assert one_pass_fail_ratio(workload) > 0


def test_wrong_poly_times_fails_verify_laws(tmp_path, monkeypatch):
    workload = build("verify-laws", tmp_path)
    polygons = sys.modules["tropcircle.polygons"]
    right = polygons.poly_times

    def drops_a_vertex(n, m):
        out = right(n, m)
        return polygons.NewtonPolygon(out.group, out.vertices[:-1])

    monkeypatch.setattr(polygons, "poly_times", drops_a_vertex)
    assert one_pass_fail_ratio(workload) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_are_deterministic(name, tmp_path):
    counted = [f"{layer}.calls" for layer in LAYERS] + [
        "scalars.is_prime_calls", "riemann_roch.dim_filtration_calls", "trace.spans"]
    runs = []
    for k in range(2):
        stem = tmp_path / f"spans-{k}" / "trace"
        tally, metrics, info = run.measure_traced(build(name, tmp_path, 5), 0, stem)
        assert tally.failed == 0
        self_s = [metrics[f"{layer}.self_s"][0] for layer in LAYERS]
        assert sum(self_s) <= info["traced_wall_s"]
        runs.append({key: metrics[key][0] for key in counted})
        header = json.loads(stem.with_suffix(".json").read_text())
        assert header["spans"] == metrics["trace.spans"][0]
        assert stem.with_suffix(".bin").stat().st_size == 24 * header["spans"]
    assert runs[0] == runs[1]
    if name == "rr-search":
        assert max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"][0]) == "riemann_roch"
    if name == "verify-laws":
        assert metrics["riemann_roch.dim_filtration_calls"][0] == 0


def test_tracer_rebinds_and_restores_everything():
    tc = run.fresh_import(run.SRC)
    pkg = sys.modules["tropcircle"]

    def snapshot():
        out = {}
        for modname, mod in sys.modules.items():
            if modname == "tropcircle" or modname.startswith("tropcircle."):
                for owner in [mod, *(v for v in vars(mod).values() if isinstance(v, type))]:
                    out.update({(id(owner), k): v for k, v in vars(owner).items()})
        return out

    before = snapshot()
    original = tc.riemann_roch.dim_filtration
    tracer = Tracer()
    tracer.install()
    try:
        assert tc.riemann_roch.dim_filtration is not original
        assert pkg.dim_filtration is tc.riemann_roch.dim_filtration
        assert tc.cli.rr_check is tc.riemann_roch.rr_check
    finally:
        tracer.uninstall()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_verify_laws_draws_the_cli_cases(tmp_path):
    seed = 3
    workload = build("verify-laws", tmp_path, seed)
    lines, ok = workload.tc.verify.run(seed, 1000)
    assert ok
    reported = dict(line.split()[1:3] for line in lines if line.startswith("ok "))
    assert reported == {s.name: f"cases={VerifyLaws.cases(s)}" for s in workload.suites}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "rr-search",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
