import numpy as np
import pytest

from henonlab.errors import ContractError
from henonlab.raster import (density_counts, grayscale_log, pgm_bytes,
                             write_pgm)


def test_pgm_header_and_payload():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    blob = pgm_bytes(img, comments=("cfg: deadbeef", "tool 0.1"))
    head, _, rest = blob.partition(b"255\n")
    lines = head.decode("ascii").splitlines()
    assert lines[0] == "P5"
    assert lines[1] == "# cfg: deadbeef"
    assert lines[2] == "# tool 0.1"
    assert lines[3] == "4 3"
    assert rest == img.tobytes()
    assert len(blob) == len(head) + 4 + 12


def test_raster_rejects_bad_input():
    with pytest.raises(ContractError):
        pgm_bytes(np.zeros((2, 2)), comments=("two\nlines",))
    with pytest.raises(ContractError):
        pgm_bytes(np.zeros((2, 2)))  # float image
    with pytest.raises(ContractError):
        pgm_bytes(np.full((2, 2), 300, dtype=np.int32))
    with pytest.raises(ContractError):
        pgm_bytes(np.zeros((2, 2, 3), dtype=np.uint8))


def test_write_round_trip(tmp_path):
    img = np.eye(4, dtype=np.uint8) * 200
    p5 = tmp_path / "a.pgm"
    write_pgm(p5, img, comments=("x",))
    assert p5.read_bytes() == pgm_bytes(img, comments=("x",))


def test_grayscale_log_mapping():
    v = np.array([[0.0, 1.0], [np.nan, 100.0]])
    g = grayscale_log(v)
    assert g.dtype == np.uint8
    assert g[0, 0] == 0 and g[1, 0] == 0  # zero and nan stay black
    assert g[1, 1] == 255  # the max lands on white
    assert 0 < g[0, 1] < g[1, 1]  # monotone in between
    assert np.all(grayscale_log(np.zeros((3, 3))) == 0)
    assert np.all(grayscale_log(np.full((2, 2), -np.inf)) == 0)


def test_grayscale_log_monotone():
    v = np.linspace(0.1, 50.0, 64).reshape(1, 64)
    g = grayscale_log(v)[0]
    assert np.all(np.diff(g.astype(int)) >= 0)


def test_density_counts_orientation():
    # one point in the lower-left cell, one in the upper-right
    pts = np.array([-0.75 - 0.75j, 0.75 + 0.75j])
    c = density_counts(pts, 0j, 2.0, 2.0, 2, 2)
    assert c.shape == (2, 2)
    assert c[0, 0] == 1  # row 0 = bottom
    assert c[1, 1] == 1
    assert c.sum() == 2
    out = density_counts(np.array([10.0 + 0j]), 0j, 2.0, 2.0, 2, 2)
    assert out.sum() == 0  # points outside the window are dropped


def test_density_counts_rejects_bad_window():
    with pytest.raises(ContractError):
        density_counts(np.array([0j]), 0j, 0.0, 1.0, 2, 2)
    with pytest.raises(ContractError):
        density_counts(np.array([0j]), 0j, 1.0, 1.0, 0, 2)
