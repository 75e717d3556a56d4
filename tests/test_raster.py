import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab.errors import ContractError
from henonlab.raster import (BAND, density_counts, grayscale_log,
                             masked_histogram, write_pgm)


def pgm_bytes(tmp_path, img, comments=()):
    path = tmp_path / "img.pgm"
    write_pgm(path, img, comments)
    return path.read_bytes()


def test_pgm_header_and_payload(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    blob = pgm_bytes(tmp_path, img, comments=("cfg: deadbeef", "tool 0.1"))
    head, _, rest = blob.partition(b"255\n")
    lines = head.decode("ascii").splitlines()
    assert lines[0] == "P5"
    assert lines[1] == "# cfg: deadbeef"
    assert lines[2] == "# tool 0.1"
    assert lines[3] == "4 3"
    assert rest == img.tobytes()
    assert len(blob) == len(head) + 4 + 12


def test_raster_rejects_bad_input(tmp_path):
    with pytest.raises(ContractError):
        pgm_bytes(tmp_path, np.zeros((2, 2)), comments=("two\nlines",))
    with pytest.raises(ContractError):
        pgm_bytes(tmp_path, np.zeros((2, 2)))  # float image
    with pytest.raises(ContractError):
        pgm_bytes(tmp_path, np.full((2, 2), 300, dtype=np.int32))
    with pytest.raises(ContractError):
        pgm_bytes(tmp_path, np.zeros((2, 2, 3), dtype=np.uint8))


def test_write_round_trip(tmp_path):
    # the rows go out a band at a time, from the image's buffer or, for a
    # flipped view, from band copies: the payload is the image's C order
    rng = np.random.default_rng(1)
    for shape in [(1, 1), (3, 4), (2, BAND + 3), (BAND // 5 + 7, 5)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        for view in (img, np.flipud(img), img[:, ::-1]):
            blob = pgm_bytes(tmp_path, view, comments=("x",))
            assert blob == (f"P5\n# x\n{shape[1]} {shape[0]}\n255\n"
                            .encode("ascii") + view.tobytes())


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


def grayscale_log_reference(values):
    # the whole-raster formula the banded map must reproduce bit for bit
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape, dtype=np.uint8)
    good = np.isfinite(v) & (v > 0.0)
    if not good.any():
        return out
    vmax = float(v[good].max())
    scaled = np.log1p(v[good]) / np.log1p(vmax)
    out[good] = (1.0 + np.rint(254.0 * scaled)).astype(np.uint8)
    return out


@st.composite
def rasters(draw):
    # heights and widths that end bands short, rows longer than a band,
    # one-row and one-column rasters, and positive values from subnormal to
    # near overflow next to nan, +-inf, 0 and negatives
    nx = draw(st.integers(1, 3 * BAND))
    ny = draw(st.integers(1, 4 * BAND // nx))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = sorted(draw(st.lists(st.integers(-320, 308), min_size=2,
                                  max_size=2)))
    with np.errstate(over="ignore"):
        v = 10.0 ** rng.uniform(lo, hi + 1, (ny, nx))
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, -1e300])
    hit = rng.random((ny, nx)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    v[hit] = rng.choice(specials, size=int(hit.sum()))
    return v


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rasters())
def test_grayscale_log_matches_whole_raster_formula(v):
    for view in (v, v[::-1], v.T):
        assert np.array_equal(grayscale_log(view),
                              grayscale_log_reference(view))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rasters(), st.sampled_from([0.0, 1.0, 1e-300]))
def test_masked_histogram_matches_whole_raster_histogram(v, top):
    mask = np.isfinite(v) & (np.arange(v.size).reshape(v.shape) % 3 > 0)
    value_range = (0.0, top or float(np.max(v, where=mask, initial=1.0)))
    want_counts, want_edges = np.histogram(v[mask], bins=32,
                                           range=value_range)
    for view, keep in ((v, mask), (v.T, mask.T)):
        counts, edges = masked_histogram(view, keep, 32, value_range)
        assert counts.tolist() == want_counts.tolist()
        assert edges.tobytes() == want_edges.tobytes()
