"""The benchmark's checker must fail corrupted artifacts, and the metric
definitions in spec.json must match BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checker import (artifacts, check_job, make_reference,  # noqa: E402
                     mobius_count)
from henonlab.cli import main  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text())


def small_job(workload: str) -> dict:
    """The workload's first job at its set-up size, as spec.json gives it."""
    import run
    js = SPEC["workloads"][workload]["jobs"][0]
    return dict(js, config=run.merged(js["config"], js["setup_config"]))


def run_job(job: dict, tmp_path: Path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(job["config"]))
    rc = main([job["command"], "--config", str(cfg), "--seed", "0",
               "--out", str(tmp_path / "out")])
    return tmp_path / "out", rc


def test_perturbed_pixel_fails_reference(tmp_path):
    job = small_job("render")
    out, rc = run_job(job, tmp_path)
    ref = make_reference(job, out)
    assert check_job(job, out, rc, ref) == []
    pgm = artifacts(out)["green-*.pgm"]
    data = bytearray(pgm.read_bytes())
    data[-5] ^= 1
    pgm.write_bytes(bytes(data))
    assert any("green-*.pgm" in p for p in check_job(job, out, rc, ref))


def test_cfg_line_is_not_compared(tmp_path):
    job = small_job("render")
    out, rc = run_job(job, tmp_path)
    ref = make_reference(job, out)
    pgm = artifacts(out)["green-*.pgm"]
    pgm.write_bytes(pgm.read_bytes().replace(b"# cfg:", b"# cfg:0", 1))
    assert check_job(job, out, rc, ref) == []


@pytest.mark.parametrize("workload,kind", [
    ("census_horseshoe", "periodic-*-orbits.csv"),
    ("census_halton", "periodic-*-orbits.csv"),
    ("julia_cubic", "julia-*.csv"),
])
def test_dropped_csv_row_fails_invariants(tmp_path, workload, kind):
    job = small_job(workload)
    out, rc = run_job(job, tmp_path)
    assert check_job(job, out, rc, None) == []
    path = artifacts(out)[kind]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2] + lines[-1:]))
    assert check_job(job, out, rc, None)


def test_wrong_exit_code_fails(tmp_path):
    job = small_job("census_horseshoe")
    out, rc = run_job(job, tmp_path)
    assert rc == job["exit"]
    assert check_job(job, out, 3, None) == ["exit code 3, expected 0"]


def test_json_keys_added_later_are_ignored(tmp_path):
    job = small_job("census_horseshoe")
    out, rc = run_job(job, tmp_path)
    ref = make_reference(job, out)
    report = artifacts(out)["periodic-*-report.json"]
    doc = json.loads(report.read_text())
    doc["levels"][0]["newton_outcomes"] = {"converged": 1}
    report.write_text(json.dumps(doc))
    assert check_job(job, out, rc, ref) == []
    doc["levels"][0]["attempts"] += 1
    report.write_text(json.dumps(doc))
    assert check_job(job, out, rc, ref)


def test_mobius_counts():
    assert [mobius_count(n) for n in range(1, 9)] == [2, 2, 6, 12, 30, 54,
                                                     126, 240]


def test_stored_references_cover_every_job():
    for name, wl in SPEC["workloads"].items():
        refs = json.loads((BENCH / "refs" / f"{name}.json").read_text())
        assert refs["seed"] == SPEC["default_seed"]
        assert sorted(refs["jobs"]) == sorted(j["name"] for j in wl["jobs"])


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["workloads"] == [{"name": name, "why": wl["why"]}
                                  for name, wl in SPEC["workloads"].items()]
    for key in ("end_to_end", "per_layer"):
        fields = ("name", "unit", "better", "bound")
        want = [{k: m[k] for k in fields if k in m} for m in SPEC[key]]
        assert bench[key] == want
