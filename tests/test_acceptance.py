"""End-to-end checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest -s to see them all);
tolerances are pinned inside henonlab.acceptance next to each check.
"""

import tempfile

import pytest

from henonlab.acceptance import _CRITERIA, run_all
from henonlab.errors import ContractError

ALL_IDS = [cid for cid, *_ in _CRITERIA]


def test_criteria_registry_shape():
    assert ALL_IDS == list(range(1, 13))
    names = [name for _, name, *_ in _CRITERIA]
    assert len(set(names)) == 12


def test_run_all_rejects_unknown_ids():
    with pytest.raises(ContractError, match=r"\[0, 99\]"):
        run_all(only=[4, 99, 0])


@pytest.mark.parametrize("only", ["12", [True], [4.5], [4, 4.0]],
                         ids=["string", "bool", "float", "int-and-float"])
def test_run_all_takes_integer_ids_only(only):
    # "12" used to run criteria 1 and 2, [4.5] criterion 4
    with pytest.raises(ContractError, match="must be integers"):
        run_all(only=only)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_criterion(cid):
    results = run_all(only=[cid])
    assert len(results) == 1
    r = results[0]
    print(f"criterion {cid:02d} {'PASS' if r.passed else 'FAIL'}: {r.name}")
    assert r.passed, f"criterion {cid:02d} ({r.name}) failed: {r.details}"


def test_run_all_leaves_nothing(tmp_path, monkeypatch):
    # criterion 12's configs, outputs and working directories go with the
    # temporary directory that hosted them
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    r, = run_all(only=[12])
    assert r.passed, r.details
    assert list(tmp_path.iterdir()) == []


def test_census_criteria_read_columns_only(monkeypatch):
    # criteria 6, 9 and 11 read the levels' columns: with `orbits` refused
    # (a property outranks the cached value of an earlier reader) they pass
    # with these details
    from henonlab.periodic2d import PeriodicLevel

    def refuse(self):
        raise AssertionError("orbit objects built")

    monkeypatch.setattr(PeriodicLevel, "orbits", property(refuse))
    results = run_all(only=[6, 9, 11])
    assert [r.passed for r in results] == [True] * 3, results
    powers = {n: 2 ** n for n in range(1, 9)}
    assert [r.details for r in results] == [
        {"counts": {n: powers[n] for n in range(1, 7)},
         "minimal_saddle_counts": {1: 2, 2: 2, 3: 6, 4: 12, 5: 30, 6: 54},
         "complete": True, "worst_imag_part": 0.0, "time_limit": 120.0},
        {"word_counts": powers, "full_shift_error": 0.0,
         "golden_mean_relative_error": 0.016386203024523406},
        {"cloud_points": 280056, "saddle_points": 106,
         "worst_distance": 0.00400743833076404, "time_limit": 60.0},
    ]


def test_criterion_past_its_time_limit_fails(monkeypatch):
    # run_all holds the one stopwatch: a check that returns past its
    # registry limit fails, its details naming that limit next to what it
    # measured; a crash carries its error alone
    import henonlab.acceptance as acceptance

    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "_CRITERIA", tuple(
        (cid, name, crash if cid == 5 else fn, 0.0 if cid == 4 else limit)
        for cid, name, fn, limit in _CRITERIA))
    late, crashed = run_all(only=[4, 5])
    assert not late.passed
    assert late.details["time_limit"] == 0.0
    assert late.details["grid"] == [200, 200]
    assert 0.99 <= late.details["mass_in_half_disk"] <= 1.01
    assert not crashed.passed
    assert crashed.details == {"error": "RuntimeError('boom')"}
