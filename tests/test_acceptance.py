"""End-to-end checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest -s to see them all);
tolerances are pinned inside henonlab.acceptance next to each check.
"""

import tempfile

import pytest

from henonlab.acceptance import _CRITERIA, run_all
from henonlab.errors import ContractError

ALL_IDS = [cid for cid, _, _ in _CRITERIA]


def test_criteria_registry_shape():
    assert ALL_IDS == list(range(1, 13))
    names = [name for _, name, _ in _CRITERIA]
    assert len(set(names)) == 12


def test_run_all_rejects_unknown_ids(tmp_path):
    with pytest.raises(ContractError, match=r"\[0, 99\]"):
        run_all(tmp_path, only=[4, 99, 0])


@pytest.mark.parametrize("only", ["12", [True], [4.5], [4, 4.0]],
                         ids=["string", "bool", "float", "int-and-float"])
def test_run_all_takes_integer_ids_only(tmp_path, only):
    # "12" used to run criteria 1 and 2, [4.5] criterion 4
    with pytest.raises(ContractError, match="must be integers"):
        run_all(tmp_path, only=only)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_criterion(cid, tmp_path):
    results = run_all(tmp_path, only=[cid])
    assert len(results) == 1
    r = results[0]
    print(f"criterion {cid:02d} {'PASS' if r.passed else 'FAIL'}: {r.name}")
    assert r.passed, f"criterion {cid:02d} ({r.name}) failed: {r.details}"


def test_run_all_without_workdir_leaves_nothing(tmp_path, monkeypatch):
    # criterion 12's configs, outputs and working directories go with the
    # temporary directory that hosted them
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    r, = run_all(only=[12])
    assert r.passed, r.details
    assert list(tmp_path.iterdir()) == []
