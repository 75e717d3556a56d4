import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlab
from henonlab import cli
from henonlab.cli import DEFAULTS, SCHEMA, build_config, main
from henonlab.errors import CapError, ContractError

TINY_RENDER = {
    "command": "render-green",
    "window": {"width": 14.0, "height": 10.0, "pixels": [24, 16]},
    "budgets": {"n_max": 60},
}

TINY_CLOUD = {
    "command": "julia-cloud",
    "budgets": {"walks": 256, "depth": 20, "burn_in": 10},
    "window": {"pixels": [32, 32]},
}


def write_cfg(tmp_path, doc):
    p = tmp_path / "job.json"
    p.write_text(json.dumps(doc))
    return p


def test_build_config_defaults():
    cfg = build_config("render-green")
    assert cfg.mode == "plus"
    assert cfg.window["pixels"] == [256, 256]
    assert cfg.threads == 1 and cfg.rng_seed == 0
    assert cfg.budgets["n_max"] == 100


def test_build_config_merge_and_overrides():
    cfg = build_config("julia-cloud", {"budgets": {"walks": 99}},
                       seed=7, threads=3, out="/tmp/x")
    assert cfg.budgets["walks"] == 99
    assert cfg.budgets["depth"] == DEFAULTS["julia-cloud"]["budgets"]["depth"]
    assert cfg.rng_seed == 7 and cfg.threads == 3 and cfg.out == "/tmp/x"


def test_build_config_rejects_bad_inputs():
    with pytest.raises(ContractError):
        build_config("no-such-command")
    with pytest.raises(ContractError):
        build_config("validate", {"command": "julia-cloud"})
    with pytest.raises(ContractError):
        build_config("render-green", threads=0)
    with pytest.raises(ContractError):
        build_config("render-green", {"window": {"pixels": [0, 4]}})
    with pytest.raises(ContractError):
        build_config("render-green", {"tolerances": {"tol": -1.0}})
    with pytest.raises(ContractError):
        build_config("julia-cloud", {"budgets": {"walks": 0}})


@pytest.mark.parametrize("extra", [{"rng_seed": 1.5}, {"threads": 2.7},
                                   {"rng_seed": True}, {"threads": True}],
                         ids=["float-seed", "float-threads", "bool-seed",
                              "bool-threads"])
def test_seed_and_threads_must_be_integers(tmp_path, capsys, extra):
    with pytest.raises(ContractError):
        build_config("julia-cloud", dict(TINY_CLOUD, **extra))
    cfg_path = write_cfg(tmp_path, dict(TINY_CLOUD, **extra))
    rc = main(["julia-cloud", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError("cannot allocate\n298 GiB")

    monkeypatch.setitem(henonlab.cli.COMMANDS, "validate", exhausted)
    assert main(["validate"]) == 2
    err = capsys.readouterr().err
    assert err == "error: MemoryError: cannot allocate 298 GiB\n"


def test_cfg_hash_tracks_semantics_only():
    base = build_config("render-green")
    same = build_config("render-green", threads=8, out="/elsewhere")
    assert base.cfg_hash() == same.cfg_hash()  # threads and out are not semantic
    seeded = build_config("render-green", seed=1)
    assert seeded.cfg_hash() != base.cfg_hash()
    shrunk = build_config("render-green", {"budgets": {"n_max": 50}})
    assert shrunk.cfg_hash() != base.cfg_hash()


def test_render_green_run(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY_RENDER)
    rc = main(["render-green", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    pgms = list((tmp_path / "out").glob("green-*.pgm"))
    stats = list((tmp_path / "out").glob("green-*-stats.json"))
    assert len(pgms) == 1 and len(stats) == 1
    blob = pgms[0].read_bytes()
    assert blob.startswith(b"P5\n# cfg:")
    assert blob.count(b"\n", 0, 200) >= 4
    doc = json.loads(stats[0].read_text())
    assert doc["mode"] == "plus"
    assert 0.0 <= doc["zero_fraction"] <= 1.0
    assert doc["max"] > 0.0
    assert sum(doc["histogram"]["counts"]) <= 24 * 16


HENON_10 = {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]}
BASILICA_PARAMS = {"kind": "poly",
                   "coeffs": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
# 72x40 pixels: one partial tile
PINNED_WINDOW = {"center": [0.0, 0.0], "width": 14.0, "height": 10.0,
                 "pixels": [72, 40]}


@pytest.mark.parametrize("doc, digests", [
    ({"mode": "plus", "params": HENON_10, "window": PINNED_WINDOW,
      "budgets": {"n_max": 60}},
     {"green-75bd1b0a27a8.pgm":
      "46da69d1a03f790bb7bb69b8f3c9bb631fc9d8a1e9d0a5db4197e6a334d4662c",
      "green-75bd1b0a27a8-stats.json":
      "f8cc167f73bade1ced87d4bd4b689eee814ae3bb72903983a219deb660c48397"}),
    ({"mode": "minus", "params": HENON_10, "window": PINNED_WINDOW,
      "budgets": {"n_max": 60}},
     {"green-d3c38e57d096.pgm":
      "b65a5230da69d23384046972fdaf5242df16ba041dfe67758b67e59d3cb02d3a",
      "green-d3c38e57d096-stats.json":
      "5d5b50d82ad7ca39e7ef518f36b4dedfdd9e3d0fc48fad5a52109c138a1109c5"}),
    ({"mode": "poly", "params": BASILICA_PARAMS,
      "slice": {"base": [[0.0, 0.0]], "direction": [[1.0, 0.0]]},
      "window": dict(PINNED_WINDOW, width=4.0, height=3.0),
      "budgets": {"n_max": 200}},
     {"green-1fe753027a38.pgm":
      "ce0e45dfaa695c6ec75b9dfc4719a94ed39d27924e58360cd49c5ff6379dd1c7",
      "green-1fe753027a38-stats.json":
      "715bd53050b980e44a43514c48f01593f4969effc2572d947fc159a7cfb8b2a6"}),
    # 136x136 pixels: a full tile and a partial one along both axes
    ({"mode": "plus", "params": HENON_10,
      "window": dict(PINNED_WINDOW, pixels=[136, 136]),
      "budgets": {"n_max": 60}},
     {"green-ab842378f080.pgm":
      "642ceea2ecdfeed538abab23f970d232c649b9e3f1189c3455c55b6f57d347bc",
      "green-ab842378f080-stats.json":
      "9b849a167fba036a60d7f4e2539d790216408788802114b42cf60de7c70a353f"}),
    # orbits retire at |x| or |y| past 1e154, where the squared magnitude
    # in the tail bound would overflow
    (dict(TINY_RENDER, mode="plus", params={"a": 1e200, "b": 0.3}),
     {"green-fe58425cb4a6.pgm":
      "373fbd4cd3a8239f0409fa9767bd937a96286f21febcdd555567e7215cc15266",
      "green-fe58425cb4a6-stats.json":
      "7d9ac1f130e18822a7f460fbf7d96a82c3f3851e0e8508814c6b757cc4b8b36e"}),
    (dict(TINY_RENDER, mode="minus", params={"a": 1e300, "b": 0.3}),
     {"green-a8d893c6e809.pgm":
      "47676d0dc255fe6119d483e8a5d0b7faf6e713ee8eb885a96dc82ebc52b9f222",
      "green-a8d893c6e809-stats.json":
      "6f29a25b557b639a834fc9b2d4ea5dd8eee7e14b882a81c297c808a34b46c607"}),
    (dict(TINY_RENDER, mode="minus", params={"a": 10.0, "b": 1e-200}),
     {"green-29a978e9c3f7.pgm":
      "67bd8e2f7f728fddf8745b8858fe647a4162e04103787f5809e0d6b88125b477",
      "green-29a978e9c3f7-stats.json":
      "c960161dcb573cf217dc8fba70a8807c4cd9f54e7c21d98b7c92835f91979150"}),
    # tall, flat and wide rasters over several bands of the gray map, the
    # histogram and the PGM write, the last band partial; 9000-pixel rows
    # are longer than a band
    ({"mode": "plus", "params": HENON_10,
      "window": dict(PINNED_WINDOW, pixels=[7, 2500]),
      "budgets": {"n_max": 60}},
     {"green-b04382681fc2.pgm":
      "4757fc7118e1d6e08b183993f9c5d81ab31d71c11df2f1b4888ccfe18facca14",
      "green-b04382681fc2-stats.json":
      "caef52e016df7616beb6a10cd2bbd51b7a3baceb02b9521c6fa1ba76d1a5ca75"}),
    ({"mode": "poly", "params": BASILICA_PARAMS,
      "slice": {"base": [[0.0, 0.0]], "direction": [[1.0, 0.0]]},
      "window": dict(PINNED_WINDOW, width=4.0, height=3.0, pixels=[2500, 7]),
      "budgets": {"n_max": 200}},
     {"green-734a919bb757.pgm":
      "88b0a3056ef3cb0f31ca0770a26f1711174f47f678dc8f032db529572ccd35ac",
      "green-734a919bb757-stats.json":
      "29aac60aeef80bf11727bf2cbc5336b9d2d6d5f095fe1df754829095d07d4f97"}),
    ({"mode": "plus", "params": HENON_10,
      "window": dict(PINNED_WINDOW, pixels=[9000, 2]),
      "budgets": {"n_max": 60}},
     {"green-6c8117fab748.pgm":
      "1a98fad65a1832a71cef63df55ab49b5ab90c9a7cd67f3cabaa03857f24a2619",
      "green-6c8117fab748-stats.json":
      "e93305a0905c4f4ce612ebf2847e7539d54359f07d83b0b625b2d2dd5c99840a"}),
], ids=["plus", "minus", "poly", "plus-tile-edges", "plus-a-1e200",
        "minus-a-1e300", "minus-b-1e-200", "plus-7x2500", "poly-2500x7",
        "plus-9000x2"])
def test_render_green_pinned_bytes(tmp_path, capsys, doc, digests):
    # fixed digests: no change to the escape-rate kernels may move a byte;
    # and no numpy warning reaches the user
    cfg_path = write_cfg(tmp_path, dict(doc, command="render-green"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["render-green", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == digests


@pytest.mark.parametrize("doc, block", [
    ({"mode": "plus"}, (512, 1024)),
    ({"mode": "poly", "params": BASILICA_PARAMS,
      "slice": {"base": [[0.0, 0.0]], "direction": [[1.0, 0.0]]},
      "window": {"width": 4.0, "height": 4.0}}, (512, 512)),
], ids=["plus", "poly"])
def test_render_green_post_tile_stage_memory(tmp_path, monkeypatch, doc,
                                             block):
    # the gray map, the range, the histogram and the PGM work over bands of
    # the one evaluated block: what they allocate, the uint8 raster
    # included, stays below its size (at a size where the band-sized
    # temporaries of np.histogram are small next to it)
    render_tiles = cli._render_tiles
    shapes = []

    def traced(*args):
        out = render_tiles(*args)
        shapes.append(out.values.shape)
        tracemalloc.start()
        return out

    monkeypatch.setattr(cli, "_render_tiles", traced)
    window = dict(doc.get("window", {}), pixels=[1024, 1024])
    cfg_path = write_cfg(tmp_path, dict(doc, command="render-green",
                                        window=window))
    try:
        rc = main(["render-green", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert shapes == [block]
    assert peak < math.prod(block) * 8


BENCH_SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"


def _render_planned(doc, planned):
    """The three raster arrays of the render config doc through
    cli._render_tiles, expanded from its block, with every line plan the
    config allows or with none, or the ContractError it raises."""
    cfg = build_config("render-green", doc)
    eval_field, conj, neg = cli._green_field(cfg)
    nx, ny = cfg.window["pixels"]
    try:
        block = cli._render_tiles(eval_field, cli._cx(cfg.window["center"]),
                                  cfg.window["width"], cfg.window["height"],
                                  nx, ny, planned and conj, planned and neg)
    except ContractError as exc:
        return str(exc)
    at = np.ix_(block.rows, block.cols)
    return block.values[at], block.converged[at], block.presumed[at]


# reals among +-0, +-1e-320, +-1e300 and normals across six decades
REALS = (st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300])
         | st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.99),
                     st.integers(-3, 2), st.sampled_from([-1.0, 1.0])))
REAL_ENTRY = st.builds(lambda v, z: [v, z], REALS, st.sampled_from([0.0, -0.0]))


@st.composite
def real_renders(draw):
    mode = draw(st.sampled_from(["plus", "minus", "poly"]))
    if mode == "poly":
        lower = draw(st.lists(REAL_ENTRY, min_size=2, max_size=4))
        params = {"kind": "poly", "coeffs": lower + [[1.0, 0.0]]}
        count = 1
    else:
        nonzero = REAL_ENTRY.filter(lambda v: v[0] != 0.0)
        params = {"a": draw(REAL_ENTRY), "b": draw(nonzero)}
        count = 2
    entries = st.lists(REAL_ENTRY, min_size=count, max_size=count)
    center = [draw(st.sampled_from([0.0, -1.5, 0.3])),
              draw(st.sampled_from([0.0, -0.0, 0.7, -0.35, 1e-300]))]
    # a side of 1e9 makes start points overflow where a direction is 1e300
    side = st.sampled_from([0.5, 3.0, 4.0, 10.0, 14.0, 16.0, 1e9])
    return {"mode": mode, "params": params,
            "slice": {"base": draw(entries), "direction": draw(entries)},
            "window": {"center": center, "width": draw(side),
                       "height": draw(side),
                       "pixels": [draw(st.integers(1, 40)),
                                  draw(st.integers(1, 60))]},
            "budgets": {"n_max": draw(st.integers(1, 60))},
            "tolerances": {"tol": draw(st.sampled_from([1e-12, 1e-9, 1e-3,
                                                        0.5]))}}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(real_renders())
def test_mirrored_rows_are_bit_identical(doc):
    # a real map on a real slice commutes with conjugation: reading each
    # mirrored row from its source changes no bit of any array, and a
    # window whose start points overflow is refused either way
    whole = _render_planned(doc, False)
    mirrored = _render_planned(doc, True)
    if isinstance(whole, str):
        assert mirrored == whole
        return
    values, converged, presumed = whole
    assert np.array_equal(mirrored[0].view(np.uint64), values.view(np.uint64))
    assert np.array_equal(mirrored[1], converged)
    assert np.array_equal(mirrored[2], presumed)


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# entries of a bounded Julia set's scale, among the edge values of REAL_ENTRY
MODEST_ENTRY = (st.builds(lambda v: [v, 0.0],
                          st.sampled_from([-1.0, -0.75, 0.3, 1.0, -0.0]))
                | REAL_ENTRY)


@st.composite
def parity_renders(draw):
    """Real poly renders of f(-w) = (-1)^d f(w), every coefficient of the
    other index parity +-0 in both parts, on bases +-0 or not, with centres
    on and off both axes and widths of any parity; now and then one
    coefficient of the other parity is made nonzero, which breaks the
    symmetry.  Returns the doc and whether t -> -t is a symmetry."""
    d = draw(st.integers(2, 5))
    coeffs = [draw(MODEST_ENTRY) if (d - i) % 2 == 0
              else [draw(SIGNED_ZERO), draw(SIGNED_ZERO)] for i in range(d)]
    symmetric = draw(st.booleans())
    if not symmetric:
        coeffs[d - 1 - 2 * draw(st.integers(0, (d - 1) // 2))] = [
            draw(st.sampled_from([0.25, -0.5, 1.5, -1e-320])), 0.0]
    base = draw(st.sampled_from([[draw(SIGNED_ZERO), draw(SIGNED_ZERO)],
                                 [0.5, 0.0], [-1e-300, -0.0]]))
    doc = {"mode": "poly",
           "params": {"kind": "poly", "coeffs": coeffs + [[1.0, 0.0]]},
           "slice": {"base": [base], "direction": [draw(MODEST_ENTRY)]},
           "window": {"center": [draw(st.sampled_from([0.0, -0.0, 0.3,
                                                       -1.5, 1e-300])),
                                 draw(st.sampled_from([0.0, -0.0, 0.7]))],
                      "width": draw(st.sampled_from([0.5, 3.0, 4.0, 1e9])),
                      "height": draw(st.sampled_from([3.0, 4.0, 14.0])),
                      "pixels": [draw(st.integers(1, 60)),
                                 draw(st.integers(1, 40))]},
           "budgets": {"n_max": draw(st.integers(1, 60))},
           "tolerances": {"tol": draw(st.sampled_from([1e-12, 1e-9,
                                                       0.5]))}}
    return doc, symmetric and base[0] == 0.0


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(parity_renders())
def test_parity_planned_pixels_are_bit_identical(case):
    # f(-w) = +-f(w) up to the sign of a zero: reading each pixel from the
    # source of its row and its column changes no bit of any array, and
    # only a symmetric polynomial on a base +-0 plans its columns
    doc, symmetric = case
    assert cli._green_field(build_config("render-green", doc))[1:] == (
        True, symmetric)
    whole = _render_planned(doc, False)
    planned = _render_planned(doc, True)
    if isinstance(whole, str):
        assert planned == whole
        return
    assert np.array_equal(planned[0].view(np.uint64), whole[0].view(np.uint64))
    assert np.array_equal(planned[1], whole[1])
    assert np.array_equal(planned[2], whole[2])


def test_rows_of_equal_magnitude_read_one_block_row():
    # at height 3e-323 the rows' imaginary coordinates round to a few
    # subnormals: each magnitude is evaluated once, in one block row that
    # more than 128 raster rows read
    doc = {"mode": "plus", "params": HENON_10,
           "window": {"center": [0.5, 0.0], "width": 4.0, "height": 3e-323,
                      "pixels": [3, 600]},
           "budgets": {"n_max": 20}}
    im = cli._pixels(0.5, 4.0, 3e-323, 3, 600, np.arange(600),
                     np.arange(1)).imag
    rows, at = cli._lines(im, True)
    assert rows.size == len(np.unique(np.abs(im)))
    assert np.bincount(at).max() > cli.TILE
    whole = _render_planned(doc, False)
    for got, want in zip(_render_planned(doc, True), whole):
        assert np.array_equal(got, want)
    assert len(np.unique(whole[0])) > 1


def _sources(coords):
    """Each line's source: the evaluated line whose pixels it reads."""
    lines, at = cli._lines(coords, True)
    return lines[at]


@pytest.mark.parametrize("nx, ny, height, center, computed", [
    (512, 512, 16.0, 0j, 256),
    (256, 256, 16.0, 0j, 128),
    # some rows of a height that is not a power of two are one ulp from
    # exact negation
    (301, 257, 16.0, 0j, 183),
    (72, 40, 10.0, 0j, 27),
    # the axis row pairs with none
    (72, 41, 10.0, 0j, 28),
    # off the axis rows pair partly, or not at all
    (72, 100, 10.0, 0.7j, 81),
    (72, 40, 10.0, 0.7j, 40),
])
def test_row_plan_counts(nx, ny, height, center, computed):
    rows = np.arange(ny)
    im = cli._pixels(center, 14.0, height, nx, ny, rows, np.arange(1)).imag
    src = _sources(im)
    assert int(np.sum(src == rows)) == computed
    twins = src != rows
    assert np.all(src[twins] < rows[twins])
    assert np.array_equal(np.abs(im[src]), np.abs(im))


def _stub_field(t):
    """A field of zeros over the pixels t: the plan without the kernels."""
    zeros = np.zeros(t.shape)
    flags = np.zeros(t.shape, dtype=bool)
    return cli.potential.GreenField(zeros, zeros, flags, flags, zeros)


@pytest.mark.parametrize("doc, block", [
    # the bench basilica: each column pairs with its mirror about Re t = 0
    ({}, (256, 256)),
    # a column count that is not a power of two: the centre column and
    # columns one ulp from exact negation pair with none
    ({"window": {"pixels": [301, 512]}}, (256, 214)),
    # off the imaginary axis columns pair partly, or not at all
    ({"window": {"center": [0.5, 0.0]}}, (256, 320)),
    ({"window": {"center": [0.3, 0.0]}}, (256, 512)),
    # a real nonzero base plans the rows only
    ({"slice": {"base": [[0.5, 0.0]]}}, (256, 512)),
], ids=["bench", "301-wide", "off-centre", "unpaired", "nonzero-base"])
def test_column_plan_counts(doc, block):
    spec = json.loads(BENCH_SPEC.read_text())
    bench, = [j["config"] for j in spec["workloads"]["render"]["jobs"]
              if j["name"] == "poly"]
    cfg = build_config("render-green", cli._deep_merge(bench, doc))
    _, conj, neg = cli._green_field(cfg)
    nx, ny = cfg.window["pixels"]
    out = cli._render_tiles(_stub_field, cli._cx(cfg.window["center"]),
                            cfg.window["width"], cfg.window["height"], nx,
                            ny, conj, neg)
    assert out.values.shape == block
    re = cli._pixels(cli._cx(cfg.window["center"]), cfg.window["width"],
                     cfg.window["height"], nx, ny, np.arange(1),
                     np.arange(nx)).real
    lines, at = cli._lines(re, neg)
    assert np.array_equal(at, out.cols)
    assert np.array_equal(np.abs(re[lines[at]]), np.abs(re))


def _ref_row_sources(im):
    """Each row's first row of equal magnitude, by a scan over all rows."""
    mags = [abs(v) for v in im.tolist()]
    return np.array([mags.index(v) for v in mags])


# signed zeros, the smallest subnormals, infinities and repeated normals,
# among any other non-NaN floats
ROW_COORDS = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf,
                               -math.inf, 1.5, -1.5, 2.0])
              | st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(ROW_COORDS, min_size=1, max_size=200))
def test_row_sources_match_first_row_of_equal_magnitude(coords):
    im = np.array(coords)
    assert np.array_equal(_sources(im), _ref_row_sources(im))


@pytest.mark.parametrize("nx, ny, height, center", [
    (512, 512, 16.0, 0j), (256, 256, 16.0, 0j), (301, 257, 16.0, 0j),
    (72, 40, 10.0, 0j), (72, 41, 10.0, 0j), (72, 100, 10.0, 0.7j),
    (72, 40, 10.0, 0.7j)])
def test_row_sources_of_pixel_rows_match_reference(nx, ny, height, center):
    # the windows of test_row_plan_counts
    im = cli._pixels(center, 14.0, height, nx, ny, np.arange(ny),
                     np.arange(1)).imag
    assert np.array_equal(_sources(im), _ref_row_sources(im))


def _counted_fields(monkeypatch):
    """Record the size of every field call the CLI makes."""
    sizes = []
    for name in ("green_plus_field", "green_minus_field", "green_poly_field"):
        def counted(*args, _field=getattr(cli.potential, name)):
            sizes.append(np.size(args[0]))
            return _field(*args)
        monkeypatch.setattr(cli.potential, name, counted)
    return sizes


@pytest.mark.parametrize("job, calls", [("plus", 8), ("poly", 4)],
                         ids=["plus", "poly"])
def test_bench_render_evaluates_half_its_rows(tmp_path, monkeypatch, job,
                                              calls):
    # each 512x512 bench render is real and centred on the axis: 256 rows,
    # where every row took 16 field calls; `plus` evaluates all 512
    # columns in 8 calls, the basilica, f(-w) = f(w) on the base 0, only
    # 256 columns in 4
    spec = json.loads(BENCH_SPEC.read_text())
    doc, = [j["config"] for j in spec["workloads"]["render"]["jobs"]
            if j["name"] == job]
    sizes = _counted_fields(monkeypatch)
    cfg_path = write_cfg(tmp_path, dict(doc, command="render-green"))
    assert main(["render-green", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert sizes == [128 * 128] * calls


@pytest.mark.parametrize("doc", [
    {"params": {"a": [10.0, 0.5], "b": [0.3, 0.0]}},
    {"params": {"a": [10.0, 0.0], "b": [0.3, -0.1]}},
    {"slice": {"base": [[0.0, 0.0], [0.0, 0.0]],
               "direction": [[1.0, 0.2], [0.0, 0.0]]}},
    {"mode": "poly", "params": {"kind": "poly",
                                "coeffs": [[-1.0, 0.1], 0.0, 1.0]}},
    {"mode": "poly", "params": BASILICA_PARAMS,
     "slice": {"base": [[0.0, 1e-3]], "direction": [[1.0, 0.0]]}},
    {"window": {"center": [0.0, 0.7]}},
], ids=["complex-a", "complex-b", "complex-direction", "complex-coeff",
        "complex-base", "unpaired-window"])
def test_render_without_mirror_evaluates_every_row(tmp_path, monkeypatch,
                                                   doc):
    sizes = _counted_fields(monkeypatch)
    window = dict(PINNED_WINDOW, **doc.get("window", {}))
    cfg_path = write_cfg(tmp_path, dict(doc, command="render-green",
                                        window=window))
    main(["render-green", "--config", str(cfg_path),
          "--out", str(tmp_path / "out")])
    assert sum(sizes) == 72 * 40


@pytest.mark.parametrize("doc, unresolved", [
    ({"budgets": {"n_max": 1}}, 0.8),
    # every orbit overflows before the escape test can fire
    ({"params": {"a": 1e300, "b": 1e300}}, 1.0),
], ids=["n_max-1", "overflow"])
def test_render_green_unresolved_pixels_exit_3(tmp_path, capsys, doc,
                                               unresolved):
    # pixels neither converged nor presumed bounded are a shortfall: the
    # files are written and the exit code says so
    cfg_path = write_cfg(tmp_path, dict(TINY_RENDER, **doc))
    out = tmp_path / "out"
    assert main(["render-green", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    stats, = out.glob("green-*-stats.json")
    doc = json.loads(stats.read_text())
    assert 1.0 - doc["converged_fraction"] >= unresolved
    assert len(list(out.glob("green-*.pgm"))) == 1


def test_render_green_late_escape_exits_0(tmp_path, capsys):
    # just past the cusp of z^2 + 1/4 the pixels near 0 escape after about
    # 3,140 steps, where 2^n is past the double range: their escape rate
    # rounds to 0, with bound 0, and every pixel converges
    doc = {"mode": "poly",
           "params": {"kind": "poly", "coeffs": [0.250001, 0.0, 1.0]},
           "window": {"center": [0.0, 0.0], "width": 0.001,
                      "height": 0.001, "pixels": [4, 4]},
           "budgets": {"n_max": 5000}}
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["render-green", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    stats, = out.glob("green-*-stats.json")
    doc = json.loads(stats.read_text())
    assert doc["converged_fraction"] == 1.0 and doc["max"] == 0.0


@pytest.mark.parametrize("doc", [
    dict(TINY_RENDER, mode="minus", params={"a": 10.0, "b": 1e-320}),
    # start points up to 5e8, so b * y overflows
    dict(TINY_RENDER, mode="plus", params={"a": 10.0, "b": 1e300},
         window={"width": 1e9, "height": 1e9, "pixels": [24, 16]}),
], ids=["minus-b-1e-320", "plus-b-1e300"])
def test_render_green_infinite_orbits_are_overflows(tmp_path, capsys, doc):
    # an orbit whose escaping coordinate reaches inf overflowed: its pixel
    # is a shortfall, not a converged inf, and no numpy warning is printed
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["render-green", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ""
    stats, = out.glob("green-*-stats.json")
    doc = json.loads(stats.read_text())
    assert doc["converged_fraction"] < 1.0
    assert doc["max"] is None or math.isfinite(doc["max"])


def test_render_green_overflowed_pixels_are_not_zeros(tmp_path):
    # every orbit overflows: the 0 written for it is a placeholder, so no
    # pixel counts toward zero_fraction
    cfg_path = write_cfg(tmp_path, dict(TINY_RENDER,
                                        params={"a": 1e300, "b": 1e300}))
    out = tmp_path / "out"
    assert main(["render-green", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    stats, = out.glob("green-*-stats.json")
    doc = json.loads(stats.read_text())
    assert doc["converged_fraction"] == 0.0
    assert doc["presumed_bounded_fraction"] == 0.0
    assert doc["zero_fraction"] == 0.0


@pytest.mark.parametrize("doc", [
    {"budgets": {"n_max": 1}},
    {"params": {"a": 1e300, "b": 1e300}},
], ids=["n_max-1", "overflow"])
def test_render_green_stats_cover_converged_pixels_only(tmp_path, doc):
    # an unconverged pixel's value is a placeholder: it enters neither the
    # histogram nor the range; with no pixel converged the range is null
    cfg_path = write_cfg(tmp_path, dict(TINY_RENDER, **doc))
    out = tmp_path / "out"
    assert main(["render-green", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    stats, = out.glob("green-*-stats.json")
    doc = json.loads(stats.read_text())
    converged = round(doc["converged_fraction"] * 24 * 16)
    assert converged < 24 * 16
    assert sum(doc["histogram"]["counts"]) == converged
    if converged:
        assert 0.0 <= doc["min"] <= doc["max"]
        assert doc["histogram"]["edges"][-1] == (doc["max"] or 1.0)
    else:
        assert doc["min"] is None and doc["max"] is None


@pytest.mark.parametrize("doc", [
    {"budgets": {"n_max": True}},
    {"tolerances": {"tol": True}},
    {"window": {"pixels": [1.5, 2]}},
    {"window": {"width": -4.0}},
    {"window": {"height": 0.0}},
    {"slice": {"base": [[0.0, 0.0]]}},
    ["render-green"],
    {"window": 5},
    {"budgets": {"n_max": 1.5}},
    {"command": "render-green", "windw": {}},
], ids=["bool-budget", "bool-tol", "float-pixels", "negative-width",
        "zero-height", "short-slice", "list-config", "window-not-object",
        "float-budget", "unknown-key"])
def test_bad_render_config_exits_2(tmp_path, capsys, doc):
    cfg_path = write_cfg(tmp_path, doc)
    rc = main(["render-green", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


HUGE_WINDOW = {"width": 1e10, "height": 1e10, "pixels": [8, 8]}


@pytest.mark.parametrize("doc", [
    {"mode": "poly", "params": BASILICA_PARAMS,
     "slice": {"base": [[0.0, 0.0]], "direction": [[1e300, 1e300]]},
     "window": HUGE_WINDOW},
    {"mode": "plus", "slice": {"base": [[0.0, 0.0], [0.0, 0.0]],
                               "direction": [[1.0, 0.0], [1e300, 0.0]]},
     "window": HUGE_WINDOW},
    # t itself overflows; a zero direction turns it into NaN
    {"mode": "minus", "window": {"center": [1.5e308, 0.0], "width": 1e308,
                                 "pixels": [8, 8]}},
], ids=["poly", "plus", "minus-window"])
def test_render_green_overflowing_start_points_exit_2(tmp_path, capsys, doc):
    # a schema-valid slice whose start points overflow is refused before
    # any artifact, with one named line and no numpy warning
    cfg_path = write_cfg(tmp_path, dict(doc, command="render-green"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["render-green", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: slice start points")
    assert not out.exists()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("command, doc, named", [
    ("render-green", {"params": {"a": [NAN, 0.0]}}, "params.a"),
    ("render-green", {"params": {"b": [0.3, INF]}}, "params.b"),
    ("julia-cloud", {"params": {"c": -INF}}, "params.c"),
    ("julia-cloud", {"window": {"center": [0.0, NAN]}}, "window.center"),
    ("julia-cloud", {"params": {"coeffs": [[INF, 0.0], 0.0, 1.0]}},
     "params.coeffs"),
    ("render-green", {"tolerances": {"tol": INF}}, "tolerances.tol"),
    ("render-green", {"tolerances": {"tol": NAN}}, "tolerances.tol"),
    ("render-green", {"params": {"a": True}}, "params.a"),
    ("render-green", {"mode": "zzz"}, "mode must be one of ['plus', 'minus', "
                                      "'poly']"),
    ("julia-cloud", {"mode": "zzz"}, "mode must be one of ['cloud']"),
    ("periodic-report", {"mode": "zzz"}, "mode must be one of ['report']"),
    ("entropy-report", {"mode": "zzz"}, "mode must be one of ['report']"),
    ("validate", {"mode": "zzz"}, "mode must be one of ['all']"),
    ("periodic-report", {"mode": 5}, "mode must be one of ['report']"),
    ("validate", {"params": {"criteria": "12"}}, "params.criteria"),
    ("validate", {"params": {"criteria": [True]}}, "params.criteria"),
    ("validate", {"params": {"criteria": [4.5]}}, "params.criteria"),
    ("validate", {"params": {"criteria": [99]}}, "[99]"),
    ("render-green", {"mode": "poly", "params": {"kind": "poly"}},
     "params.coeffs"),
    # the entropy slope needs three word lengths
    ("entropy-report", {"budgets": {"word_max": 2}},
     "budgets.word_max must be an integer >= 3"),
], ids=["nan-a", "inf-b", "inf-c", "nan-center", "inf-coeffs", "inf-tol",
        "nan-tol", "bool-complex", "render-mode", "cloud-mode",
        "periodic-mode", "entropy-mode", "validate-mode", "int-mode",
        "criteria-string", "criteria-bool", "criteria-float",
        "criteria-unknown", "poly-without-coeffs", "short-word-max"])
def test_config_holes_exit_2(tmp_path, capsys, command, doc, named):
    # each of these used to run, to fail only after making --out, or to
    # fail without naming the field and what it takes
    cfg_path = write_cfg(tmp_path, dict(doc, command=command))
    rc = main([command, "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    assert not (tmp_path / "out").exists()


TINY_CONFIGS = [
    dict(TINY_RENDER, mode="plus", rng_seed=0, threads=1,
         params={"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]},
         slice={"base": [[0.0, 0.0], [0.0, 0.0]],
                "direction": [[1.0, 0.0], [0.0, 0.0]]},
         tolerances={"tol": 1e-9},
         window=dict(TINY_RENDER["window"], center=[0.0, 0.0])),
    dict(TINY_CLOUD, mode="cloud",
         params={"kind": "poly", "coeffs": [[-1.0, 0.0], 0.0, 1.0],
                 "c": [1.0, 0.0]},
         window=dict(TINY_CLOUD["window"], center=[0.0, 0.0], width=4.0,
                     height=4.0)),
    {"command": "periodic-report", "mode": "report",
     "params": {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]},
     "budgets": {"level_max": 2, "budget": 64}},
    {"command": "entropy-report", "mode": "report",
     "budgets": {"word_max": 3, "reality_n_max": 2, "budget": 64}},
    {"command": "validate", "mode": "all", "params": {"criteria": [4]}},
]
_NAMES = {n for schema in SCHEMA.values() for n in schema["mode"]}
_NAMES |= {"henon", "poly"}
# values no config field accepts, however deeply nested
BAD_ATOMS = st.one_of(st.text(max_size=6).filter(lambda t: t not in _NAMES),
                      st.none(), st.booleans(),
                      st.sampled_from([NAN, INF, -INF]))
BAD_VALUES = st.recursive(BAD_ATOMS, lambda inner: st.one_of(
    st.lists(inner, min_size=1, max_size=3),
    st.builds(lambda v: {"zz": v}, inner)), max_leaves=5)


def _paths(node, path=()):
    """Paths to every node below `node` and whether that node is a dict."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), isinstance(child, dict)
        yield from _paths(child, path + (key,))


def _fuzzed(doc, path, add_key, value):
    """doc with the node at path replaced by value, or, when add_key is a
    string, with key "zz" + add_key set to value in the dict at path."""
    doc = json.loads(json.dumps(doc))
    if add_key is not None:
        path += ("zz" + add_key,)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def fuzzed_configs(draw):
    doc = draw(st.sampled_from(TINY_CONFIGS))
    paths = list(_paths(doc))
    add_key = draw(st.one_of(st.none(), st.text(max_size=4)))
    if add_key is None:
        path = draw(st.sampled_from([p for p, _ in paths]))
    else:
        path = draw(st.sampled_from([()] + [p for p, d in paths if d]))
    return doc, _fuzzed(doc, path, add_key, draw(BAD_VALUES))


@pytest.mark.parametrize("doc", TINY_CONFIGS,
                         ids=[d["command"] for d in TINY_CONFIGS])
def test_tiny_fuzz_configs_are_valid(doc):
    build_config(doc["command"], doc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(fuzzed_configs())
def test_fuzzed_config_exits_2_without_output(case):
    original, doc = case
    command = original["command"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "job.json"
        cfg_path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg_path),
                       "--out", str(Path(tmp) / "out")])
        assert rc == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (Path(tmp) / "out").exists()


def _modulus_in(lo, hi):
    """An [re, im] pair of modulus between lo and hi."""
    return st.builds(lambda r, t: [r * math.cos(t), r * math.sin(t)],
                     st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))


SMALL = _modulus_in(0.0, 2.0)
HENON_PARAMS = st.fixed_dictionaries({
    "kind": st.just("henon"), "a": _modulus_in(0.0, 100.0),
    "b": _modulus_in(0.01, 2.0)})
MONIC = st.builds(lambda low: low + [1.0],
                  st.lists(SMALL, min_size=2, max_size=3))
WINDOWS = st.fixed_dictionaries({
    "center": SMALL, "width": st.floats(0.1, 30.0),
    "height": st.floats(0.1, 30.0),
    "pixels": st.lists(st.integers(1, 12), min_size=2, max_size=2)})


@st.composite
def valid_configs(draw):
    command = draw(st.sampled_from(["render-green", "julia-cloud",
                                    "periodic-report", "entropy-report"]))
    doc = {"command": command}
    if command == "render-green":
        mode = draw(st.sampled_from(SCHEMA[command]["mode"]))
        k = 1 if mode == "poly" else 2
        doc.update(
            mode=mode,
            params=({"kind": "poly", "coeffs": draw(MONIC)} if mode == "poly"
                    else draw(HENON_PARAMS)),
            slice={key: draw(st.lists(SMALL, min_size=k, max_size=k))
                   for key in ("base", "direction")},
            window=draw(WINDOWS), budgets={"n_max": draw(st.integers(1, 60))},
            tolerances={"tol": draw(st.floats(1e-12, 1e-3))})
    elif command == "julia-cloud":
        depth = draw(st.integers(1, 12))
        doc.update(
            params={"kind": "poly", "coeffs": draw(MONIC), "c": draw(SMALL)},
            window=draw(WINDOWS), rng_seed=draw(st.integers(0, 2 ** 32)),
            budgets={"walks": draw(st.integers(1, 16)), "depth": depth,
                     "burn_in": draw(st.integers(0, depth - 1))})
    elif command == "periodic-report":
        doc.update(params=draw(HENON_PARAMS),
                   budgets={"level_max": draw(st.integers(1, 4)),
                            "budget": draw(st.integers(1, 64))})
    else:
        doc.update(params=draw(HENON_PARAMS),
                   budgets={"word_max": draw(st.integers(3, 5)),
                            "reality_n_max": draw(st.integers(1, 3)),
                            "budget": draw(st.integers(1, 64))})
    return doc


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(valid_configs())
def test_valid_config_exits_honestly_and_reruns_identically(doc):
    # a valid config runs to a verdict: success or an honest shortfall,
    # at most one line on stderr, and the same bytes on a rerun
    command = doc["command"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "job.json"
        cfg_path.write_text(json.dumps(doc))
        runs = []
        for name in ("o1", "o2"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(cfg_path),
                           "--out", str(Path(tmp) / name)])
            out = Path(tmp) / name
            runs.append((rc, err.getvalue(), sorted(
                (f.name, f.read_bytes()) for f in out.iterdir())
                if out.exists() else []))
        (rc, err, files), rerun = runs
        assert len(err.splitlines()) <= 1
        if rc == 2:
            # a backward walk from an exceptional base point collapses
            assert command == "julia-cloud" and "exceptional" in err
        else:
            assert rc in (0, 3), err
        assert rerun == runs[0]


@pytest.mark.parametrize("command, doc", [
    ("julia-cloud", dict(TINY_CLOUD, budgets=dict(TINY_CLOUD["budgets"],
                                                  walkz=8))),
    ("julia-cloud", dict(TINY_CLOUD, params={"junk": 1})),
    ("julia-cloud", dict(TINY_CLOUD, window={"centre": [0.5, 0.0]})),
    ("render-green", dict(TINY_RENDER, tolerances={"toll": 1e-6})),
    ("render-green", dict(TINY_RENDER, params={"c": [1.0, 0.0]})),
    ("periodic-report", {"budgets": {"level_max": 2, "n_max": 5}}),
], ids=["cloud-budgets", "cloud-params", "cloud-window", "render-tolerances",
        "render-params", "periodic-budgets"])
def test_unknown_section_key_exits_2(tmp_path, capsys, command, doc):
    with pytest.raises(ContractError):
        build_config(command, doc)
    cfg_path = write_cfg(tmp_path, dict(doc, command=command))
    rc = main([command, "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each stage where the CLI looks it up: cli reads julia_render_points
# through poly1d at call time
@pytest.mark.parametrize("command, doc, stage", [
    ("julia-cloud", {"budgets": {"walks": 1000000000}},
     "henonlab.poly1d.julia_render_points"),
    ("julia-cloud", {"window": {"pixels": [100000, 100000]}},
     "henonlab.poly1d.julia_render_points"),
    ("render-green", {"window": {"pixels": [100000, 100000]}},
     "henonlab.cli._render_tiles"),
], ids=["cloud-walks", "cloud-pixels", "render-pixels"])
def test_size_cap_refuses_before_allocation(tmp_path, monkeypatch, capsys,
                                            command, doc, stage):
    calls = []

    def allocating_stage(*args, **kwargs):
        calls.append(stage)
        raise MemoryError("allocating stage reached")

    monkeypatch.setattr(stage, allocating_stage)
    with pytest.raises(CapError):
        build_config(command, doc)
    cfg_path = write_cfg(tmp_path, doc)
    rc = main([command, "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2 and calls == []
    assert "SIZE_CAP" in capsys.readouterr().err
    # the default config, under the cap, reaches the stub: it sits where
    # the CLI looks the stage up
    assert main([command, "--out", str(tmp_path / "small")]) == 2
    assert calls == [stage]


def test_julia_cloud_run(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY_CLOUD)
    rc = main(["julia-cloud", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    csvs = list((tmp_path / "out").glob("julia-*.csv"))
    assert len(csvs) == 1
    with csvs[0].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2] == ["re", "im", "level"]
    data = rows[3:]
    assert len(data) == 256 * (20 - 10)  # walks points per kept level
    for r in data[:16]:
        complex(float(r[0]), float(r[1]))  # parses as numbers
        assert 11 <= int(r[2]) <= 20
    assert len(list((tmp_path / "out").glob("julia-*.pgm"))) == 1


def test_periodic_report_run(tmp_path):
    cfg_path = write_cfg(tmp_path, {
        "command": "periodic-report",
        "budgets": {"level_max": 3, "budget": 256},
    })
    rc = main(["periodic-report", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    reports = list((tmp_path / "out").glob("periodic-*-report.json"))
    assert len(reports) == 1
    doc = json.loads(reports[0].read_text())
    assert [lv["fixed_point_count"] for lv in doc["levels"]] == [2, 4, 8]
    assert all(lv["complete"] for lv in doc["levels"])
    # itinerary seeding: no continuation ran
    assert all(lv["paths_lost"] == 0 and lv["step_halvings"] == 0
               for lv in doc["levels"])
    matrix = doc["mu_comparison"]
    assert [matrix[i][i] for i in range(3)] == [0.0] * 3
    assert matrix == [list(col) for col in zip(*matrix)]
    assert all(matrix[i][j] > 0.0 for i in range(3) for j in range(3) if i != j)
    assert len(list((tmp_path / "out").glob("periodic-*-orbits.csv"))) == 1
    assert len(list((tmp_path / "out").glob("periodic-*-saddles.csv"))) == 1


OFF_HORSESHOE = {"kind": "henon", "a": [1.4, 0.0], "b": [0.3, 0.0]}


def _periodic_report(tmp_path, doc, name, threads=1):
    cfg_path = write_cfg(tmp_path, dict(doc, command="periodic-report"))
    out = tmp_path / name
    rc = main(["periodic-report", "--config", str(cfg_path),
               "--threads", str(threads), "--out", str(out)])
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    report, = (json.loads(blob) for name_, blob in files.items()
               if name_.endswith("-report.json"))
    return rc, files, report


@pytest.mark.parametrize("doc, rc, digests", [
    ({"params": {"kind": "henon", "a": [10.0, 0.0], "b": [0.3, 0.0]},
      "budgets": {"level_max": 6}}, 0,
     {"periodic-66a4a36567ea-orbits.csv":
      "d3509d4d117a7b8627d5134171921a314c9fdc30cf882ddae8235ba0aa013f60",
      "periodic-66a4a36567ea-report.json":
      "a2c94cb2eb44388420371c4b5230156986af348f696b7175d9ac7adcdeb4508e",
      "periodic-66a4a36567ea-saddles.csv":
      "a60af744d8133ee5c473237fc55e8e79074fbc9257c0e3debc4471c3740dd7a8"}),
    ({"params": OFF_HORSESHOE, "budgets": {"level_max": 5}}, 0,
     {"periodic-6f93f776d71b-orbits.csv":
      "13b2abbe211248729848bab52b1025a2ca14ec19bfdcc0755f7cf7b2602899cc",
      "periodic-6f93f776d71b-report.json":
      "9bb793ad76fb3038926f53b6de55921b3e99adde29d6e471eb1c93379284d979",
      "periodic-6f93f776d71b-saddles.csv":
      "b0ba10f40251287015a4edc1147150fd88c60865bfae48f465814f214862c8ce"}),
    # a path lost on both detours (paths_lost 1 at levels 2 and 4), whose
    # stalled end is polished but not admitted: the levels are incomplete
    ({"params": {"kind": "henon", "a": [3.0, 0.0], "b": [1.0, 0.0]},
      "budgets": {"level_max": 4}}, 3,
     {"periodic-e140bf9103fc-orbits.csv":
      "d92943337da23d524b59bce04cf3535d76591a213a36eedcb1ca17cb7de3e765",
      "periodic-e140bf9103fc-report.json":
      "41b18b2b1206c346c0f7923f76fb61e963f94339afd1ff9b5fa8325fe7e22df5",
      "periodic-e140bf9103fc-saddles.csv":
      "190d0094d5a7a9f8f535b85f033746713872302ecba859a29ecbe1e94b0422c9"}),
    # two period-8 paths lost on the first detour and rerun on the second
    ({"params": {"kind": "henon", "a": [0.02431, 0.0],
                 "b": [-0.44608, 0.0]},
      "budgets": {"level_max": 8}}, 0,
     {"periodic-6fbf4238e4c4-orbits.csv":
      "4721dc62879791c88b9cec8432dfaaf5c995e6ed39e9fcf3c588a01241f61a53",
      "periodic-6fbf4238e4c4-report.json":
      "70cab2b23163cffb311e0d0946366e78582b5b81346561b4b85836a728b4fd20",
      "periodic-6fbf4238e4c4-saddles.csv":
      "71282857801999e74162964daa9a4e0f7d1fa91cd23f68cb2153918f6bb1938c"}),
    # a long path: its detours scale with |a - a0|, so every level is
    # complete (a fixed kappa left 2 of 2^n points from level 2 on)
    ({"params": {"kind": "henon", "a": [-1e4, 0.0], "b": [0.3, 0.0]},
      "budgets": {"level_max": 6}}, 0,
     {"periodic-06432de8d23b-orbits.csv":
      "3abe16e1e7a201e265e1d15eafb58904de66b882438eed8e7f5b3dd1c6ef8b07",
      "periodic-06432de8d23b-report.json":
      "820e7b9b65255fe820e9b57070be13d7af5b28cd7e486cc321e3f7cd69ad615a",
      "periodic-06432de8d23b-saddles.csv":
      "03fc231af9c276fdeb719400880c7a4b783d518e5c10b42e700afb7414eef77d"}),
], ids=["horseshoe", "continued", "paths-lost", "paths-retried",
        "far-a"])
def test_periodic_report_pinned_bytes(tmp_path, doc, rc, digests):
    # fixed digests: no change to orbit assembly, the reality table or the
    # measure comparison may move a byte
    got, files, _ = _periodic_report(tmp_path, doc, "out")
    assert got == rc
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in files.items()} == digests


def test_periodic_report_computes_each_quantity_once(tmp_path, monkeypatch):
    # census orbits carry their monodromy into the reality table, and each
    # measure integrates each battery probe once for all its comparisons
    import henonlab.measures as measures
    import henonlab.periodic2d as periodic2d
    chain_calls, integrals = [], []

    def no_chain(*args):
        chain_calls.append(args)
        raise AssertionError("census orbit monodromy recomputed")

    def counting(mu, values):
        integrals.append(id(mu))
        return integrate(mu, values)

    integrate = measures.integrate
    monkeypatch.setattr(periodic2d, "derivative_along_orbit", no_chain)
    monkeypatch.setattr(measures, "integrate", counting)
    for name, doc in (("horseshoe", {"budgets": {"level_max": 6}}),
                      ("continued", {"params": OFF_HORSESHOE,
                                     "budgets": {"level_max": 4}})):
        integrals.clear()
        rc, _, report = _periodic_report(tmp_path, doc, name)
        levels = len(report["levels"])
        assert rc == 0 and len(report["reality"]["rows"]) == levels
        assert len(integrals) == 10 * levels
        assert sorted(integrals.count(i) for i in set(integrals)) == \
            [10] * levels
    assert chain_calls == []


def _refuse_orbit_objects(monkeypatch):
    import henonlab.dynamics as dynamics
    import henonlab.periodic2d as periodic2d

    def refuse(*args, **kwargs):
        raise AssertionError("object built")

    for module, name in ((periodic2d, "PeriodicOrbit"),
                         (periodic2d, "PointC2"), (dynamics, "PointC2")):
        monkeypatch.setattr(module, name, refuse)


def test_periodic_report_builds_no_orbit_objects(tmp_path, monkeypatch):
    # the report reads the levels' columns: no PeriodicOrbit or PointC2 is
    # ever built, on the horseshoe or off it
    _refuse_orbit_objects(monkeypatch)
    for name, doc in (("horseshoe", {"budgets": {"level_max": 6}}),
                      ("continued", {"params": OFF_HORSESHOE,
                                     "budgets": {"level_max": 4}})):
        rc, files, _ = _periodic_report(tmp_path, doc, name)
        assert rc == 0 and len(files) == 3


@pytest.mark.parametrize("doc, status", [
    ({"budgets": {"word_max": 8}}, "ok"),
    ({"params": OFF_HORSESHOE}, "skipped"),
], ids=["horseshoe", "off-horseshoe"])
def test_entropy_report_builds_no_orbit_objects(tmp_path, monkeypatch, doc,
                                                status):
    # the word counts and the reality table read the levels' columns
    _refuse_orbit_objects(monkeypatch)
    cfg_path = write_cfg(tmp_path, dict(doc, command="entropy-report"))
    out = tmp_path / "out"
    assert main(["entropy-report", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    report, = (json.loads(f.read_text()) for f in out.iterdir())
    assert report["entropy"]["status"] == status


@pytest.mark.parametrize("doc, want", [
    ({"budgets": {"level_max": 6}},
     [(0, 0, 0), (1, 0, 1), (1, 0, 1), (2, 0, 1), (1, 0, 1), (4, 0, 1)]),
    ({"params": OFF_HORSESHOE, "budgets": {"level_max": 4}},
     [(0, 0, 0)] * 4),
], ids=["horseshoe", "continued"])
def test_periodic_report_census_counters(tmp_path, monkeypatch, doc, want):
    # lower_period, residual_rejected and duplicates per level: the same
    # in a rerun, at another thread count and with smaller Newton blocks
    import henonlab.cycles as cycles
    keys = ("lower_period", "residual_rejected", "duplicates")
    rc, files, report = _periodic_report(tmp_path, doc, "first")
    assert rc == 0
    assert [tuple(lv[k] for k in keys) for lv in report["levels"]] == want
    monkeypatch.setattr(cycles, "PATHS_BLOCK_ELEMS", 100)
    for name, threads in (("again", 1), ("t4", 4)):
        rc2, files2, _ = _periodic_report(tmp_path, doc, name, threads)
        assert rc2 == 0 and files2 == files


def test_csv_lines_match_csv_writer(tmp_path):
    # the one CSV writer joins preformatted fields; for every kind of field
    # the CSVs hold, the bytes are those csv.writer writes
    from henonlab.cli import _write_csv
    values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324,
              1.7976931348623157e308, 1.2345678901234567e-05, 1e16, -2.5]
    rows = [["# cfg:" + "0123456789abcdef" * 4], ["# tool:henonlab 0.1.0"],
            ["n", "orbit", "class", "is_real"]]
    rows += [[3, i, repr(v), repr(-v), "nonhyperbolic", int(i % 2)]
             for i, v in enumerate(values)]
    with open(tmp_path / "writer.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _write_csv(tmp_path / "lines.csv",
               (",".join(map(str, row)) for row in rows))
    assert ((tmp_path / "lines.csv").read_bytes()
            == (tmp_path / "writer.csv").read_bytes())


def test_periodic_report_continuation_counters(tmp_path):
    doc = {"params": OFF_HORSESHOE,
           "budgets": {"level_max": 5, "budget": 256}}
    rc, files, report = _periodic_report(tmp_path, doc, "t1")
    assert rc == 0
    levels = report["levels"]
    assert all(lv["complete"] and lv["paths_lost"] == 0 for lv in levels)
    assert levels[0]["step_halvings"] == 0  # fixed points: no paths
    assert all(lv["step_halvings"] > 0 for lv in levels[1:])
    for name, threads in (("t1-again", 1), ("t4", 4)):
        rc2, files2, _ = _periodic_report(tmp_path, doc, name, threads)
        assert rc2 == 0 and files2 == files


def test_periodic_report_lost_path_exits_3(tmp_path):
    # at (3, 1) the period-2 orbit merges into a fixed point
    doc = {"params": {"kind": "henon", "a": [3.0, 0.0], "b": [1.0, 0.0]},
           "budgets": {"level_max": 2, "budget": 64}}
    rc, _, report = _periodic_report(tmp_path, doc, "out")
    assert rc == 3
    lv2 = report["levels"][1]
    assert lv2["paths_lost"] == 1 and not lv2["complete"]
    assert lv2["fixed_point_count"] == 2


@pytest.mark.parametrize("a, level_max, rc", [(1e300, 5, 2), (1e150, 4, 0)])
def test_periodic_report_overflowing_monodromy(tmp_path, a, level_max, rc):
    # at a = 1e300 the period-3 monodromy, ~(2e150)^3, passes double range:
    # one named error line and no numpy warnings; 1e150 stays in range
    cfg_path = write_cfg(tmp_path, {
        "command": "periodic-report",
        "params": {"kind": "henon", "a": [a, 0.0], "b": [0.3, 0.0]},
        "budgets": {"level_max": level_max}})
    src = str(Path(henonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "henonlab", "periodic-report", "--config",
         str(cfg_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == rc
    if rc:
        assert proc.stderr.splitlines() == [
            "error: monodromy of a period-3 cycle overflowed "
            "(max |x| 1.000e+150)"]
    else:
        assert proc.stderr == ""


def test_entropy_report_run(tmp_path):
    cfg_path = write_cfg(tmp_path, {
        "command": "entropy-report",
        "budgets": {"word_max": 6, "reality_n_max": 2, "budget": 256},
    })
    rc = main(["entropy-report", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    reports = list((tmp_path / "out").glob("entropy-*.json"))
    assert len(reports) == 1
    doc = json.loads(reports[0].read_text())
    assert doc["reality"]["verdict"] == "log 2"


@pytest.mark.parametrize("word_max, reality_n_max", [(3, 3), (4, 4),
                                                      (3, 4)])
def test_entropy_report_off_horseshoe_reality_levels(tmp_path, word_max,
                                                     reality_n_max):
    # real parameters that fail the horseshoe test: the entropy is skipped,
    # and the reality table still needs every level, word_max included
    cfg_path = write_cfg(tmp_path, {
        "command": "entropy-report", "params": {"a": 1.4, "b": 0.3},
        "budgets": {"word_max": word_max, "reality_n_max": reality_n_max}})
    rc = main(["entropy-report", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc in (0, 3)
    report, = (tmp_path / "out").glob("entropy-*.json")
    doc = json.loads(report.read_text())
    assert doc["entropy"]["status"] == "skipped"
    assert doc["reality"]["verdict"] in ("log 2", "inconclusive",
                                         "entropy < log 2 expected")


def test_entropy_report_reality_inconclusive(tmp_path):
    # (3, 1) fails the horseshoe test and its level 2 falls short: the
    # entropy is skipped and the reality verdict alone makes the run
    # inconclusive
    cfg_path = write_cfg(tmp_path, {
        "command": "entropy-report", "params": {"a": 3.0, "b": 1.0},
        "budgets": {"reality_n_max": 2}})
    rc = main(["entropy-report", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    report, = (tmp_path / "out").glob("entropy-*.json")
    doc = json.loads(report.read_text())
    assert doc["entropy"]["status"] == "skipped"
    assert doc["reality"]["verdict"] == "inconclusive"


def test_validate_subset_run(tmp_path):
    cfg_path = write_cfg(tmp_path, {
        "command": "validate",
        "params": {"criteria": [4]},
    })
    rc = main(["validate", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    reports = list((tmp_path / "out").glob("validate-*.json"))
    assert len(reports) == 1
    doc = json.loads(reports[0].read_text())
    assert len(doc["criteria"]) == 1
    assert doc["criteria"][0]["passed"] is True


@pytest.fixture(scope="module")
def validate_12(tmp_path_factory):
    """One `validate` run of criterion 12: exit code, stdout and --out."""
    tmp = tmp_path_factory.mktemp("validate-12")
    cfg_path = write_cfg(tmp, {"command": "validate",
                               "params": {"criteria": [12]}})
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = main(["validate", "--config", str(cfg_path), "--out", str(out)])
    return rc, stdout.getvalue(), out


def test_validate_prints_one_line_per_criterion(validate_12):
    # criterion 12 runs `validate` itself; those inner verdict lines stay
    # out of the outer run's stdout, and the report keeps its bytes
    rc, stdout, out = validate_12
    assert rc == 0
    assert stdout.splitlines() == [
        "PASS  12  CLI outputs are byte-identical in a fresh interpreter"]
    report, = out.glob("validate-*.json")
    assert report.name == "validate-593d4f21ad13.json"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "6f0ff387a7f7e32fd8098034af568888eeea793abd3ace3520ff03d7be08e69b")


def test_validate_leaves_only_its_report(validate_12):
    # criterion 12's configs, outputs and working directories go once it
    # has compared them
    rc, _, out = validate_12
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["validate-593d4f21ad13.json"]


def test_fresh_interpreter_check_can_fail(monkeypatch):
    # a version string patched into this process only reaches the
    # in-process run's `tool:` lines; the fresh interpreter writes the real
    # one, so criterion 12 must see the files differ
    from henonlab.acceptance import run_all
    monkeypatch.setattr("henonlab.cli.__version__", "0.0.0-patched")
    r, = run_all(only=[12])
    assert not r.passed
    assert not any(r.details["identical"].values())
    assert all(rcs == [0, 0] for rcs in r.details["exit_codes"].values())


def test_validate_unknown_criterion_is_a_contract_error(tmp_path):
    # a run that checks nothing must not report all_passed
    cfg_path = write_cfg(tmp_path, {
        "command": "validate",
        "params": {"criteria": [99]},
    })
    rc = main(["validate", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not list((tmp_path / "out").glob("validate-*.json"))


@pytest.mark.parametrize("argv", [
    [], ["no-such-command"], ["julia-cloud", "--seed", "x"],
    ["julia-cloud", "--bogus"], ["validate", "--out"],
], ids=["empty", "command", "seed", "flag", "out"])
def test_usage_errors_exit_2_with_one_parser(capsys, argv):
    # one parser serves every call in a process: a usage error leaves it
    # as it was, so a repeat prints the same lines, and it still parses
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("usage: henonlab")
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["validate", "--seed", "3"]).seed == 3


def test_cli_error_paths(tmp_path):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    cfg_path = write_cfg(tmp_path, {"command": "julia-cloud"})
    rc = main(["render-green", "--config", str(cfg_path)])
    assert rc == 2
    missing = tmp_path / "nope.json"
    rc = main(["render-green", "--config", str(missing)])
    assert rc == 4


CUBIC_CLOUD = {
    "params": {"kind": "poly", "coeffs": [[0.3, 0.2], [-0.5, 0.0], 0.0, 1.0],
               "c": 1.0},
    "budgets": {"walks": 64, "depth": 20, "burn_in": 10},
    "window": {"width": 4.0, "height": 4.0, "pixels": [40, 24]},
}

QUARTIC_CLOUD = {
    "params": {"kind": "poly",
               "coeffs": [[0.1, -0.3], 0.2, [-0.7, 0.1], 0.0, 1.0], "c": 1.0},
    "budgets": {"walks": 128, "depth": 30, "burn_in": 10},
    "window": {"width": 4.0, "height": 4.0, "pixels": [40, 24]},
}


@pytest.mark.parametrize("command, doc, rc, digests", [
    # degree 3: every walk step runs the Aberth solver
    ("julia-cloud", CUBIC_CLOUD, 0,
     {"julia-0b304444a71a.csv":
      "97b1c9dc113dd8eea46cc5893152867b846e549897ed96cc42826188844b5fb0",
      "julia-0b304444a71a.pgm":
      "72c034f7bc5b7648d93eebf11ae5a68d652812f9abe4526d88a156efeb344d54"}),
    # degree 4: each root's repel sum has more than three terms, so a
    # change to their summation order would move bytes here
    ("julia-cloud", QUARTIC_CLOUD, 0,
     {"julia-2e88c8090e85.csv":
      "b288227c3109db55edf3a50e49d1228a5c1f78b7463bf7234cfa8b880e9b2185",
      "julia-2e88c8090e85.pgm":
      "ba77c243a23371bfc9ff1d3bb80b576b1e9fecee7a4003e0a0fc0641c2deea8e"}),
    ("entropy-report", {}, 0,
     {"entropy-70aa4ae2b05c.json":
      "c790d54c605c96e171d827c470374bb62102f02ef68fc68ba1ff975a0506937f"}),
    ("entropy-report", {"budgets": {"word_max": 3}}, 0,
     {"entropy-ff948b1b6ed0.json":
      "c654b355a349e8f3253862efd92f44c46ad6fbf886f912511ded7cb749cd851c"}),
    ("entropy-report", {"budgets": {"word_max": 12}}, 0,
     {"entropy-96c277eda304.json":
      "38d0eed2afde7386ac31bfe9bcdbbda8ad80c8ba880e9cac48848547adafe684"}),
    ("entropy-report", {"budgets": {"word_max": 14}}, 0,
     {"entropy-e75e3d065bfd.json":
      "002e9b7bc411b9483b148c41cd663644102081a1ec5846d7c27eb8d6e5f39a74"}),
    # the word count is skipped; the reality table still runs
    ("entropy-report", {"params": OFF_HORSESHOE}, 0,
     {"entropy-e02c2c8fedd2.json":
      "55f07018020420229b69dee936d5f44dc35ecec5a31269391fc37ffcb3937d41"}),
    # 152 of the 1024 period-10 points: inconclusive
    ("entropy-report", {"budgets": {"budget": 16}}, 3,
     {"entropy-46103fb20706.json":
      "406c6f0da1a7792bec1e78683cc9a8d8da9e6f93f4065170466736af46fef1f8"}),
], ids=["julia-cubic", "julia-quartic", "entropy-default", "entropy-word3",
        "entropy-word12", "entropy-word14", "entropy-skipped",
        "entropy-incomplete"])
def test_cloud_and_entropy_pinned_bytes(tmp_path, command, doc, rc, digests):
    # fixed digests: no change to the Aberth walks, the census or the
    # entropy estimate may move a byte
    cfg_path = write_cfg(tmp_path, dict(doc, command=command))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == rc
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == digests


def test_outputs_deterministic_across_reruns(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY_CLOUD)
    outs = []
    for name in ("o1", "o2"):
        rc = main(["julia-cloud", "--config", str(cfg_path),
                   "--out", str(tmp_path / name)])
        assert rc == 0
        files = sorted(f for f in (tmp_path / name).rglob("*") if f.is_file())
        outs.append([f.read_bytes() for f in files])
    assert outs[0] == outs[1]


def _run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports henonlab from here."""
    src = str(Path(henonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _run_without_scipy_stats(code: str) -> None:
    _run_fresh(code + "\nassert 'scipy.stats' not in sys.modules, "
               "'scipy.stats loaded'")


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates start-up; nothing in henonlab needs it
    _run_without_scipy_stats("import sys, henonlab.cli")


def test_off_horseshoe_census_leaves_scipy_stats_unloaded(tmp_path):
    # nor numpy.ma, which np.unique imports on its first call; the census
    # continues cycles off the horseshoe and seeds itineraries on it
    for name, params in [("off", OFF_HORSESHOE), ("on", HENON_10)]:
        (tmp_path / name).mkdir()
        cfg_path = write_cfg(tmp_path / name, {
            "command": "periodic-report", "params": params,
            "budgets": {"level_max": 3, "budget": 64}})
        _run_without_scipy_stats(
            "import sys\nfrom henonlab.cli import main\n"
            f"assert main(['periodic-report', '--config', {str(cfg_path)!r}, "
            f"'--out', {str(tmp_path / name / 'out')!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'")


def test_polynomial_jobs_leave_numpy_polynomial_unloaded(tmp_path):
    # poly1d evaluates every polynomial by its own Horner
    cfg_path = write_cfg(tmp_path, dict(TINY_CLOUD, params={
        "kind": "poly", "coeffs": [[0.3, 0.2], [-0.5, 0.0], 0.0, 1.0]}))
    _run_fresh(
        "import sys\nfrom henonlab.cli import main\n"
        "from henonlab.poly1d import Poly, brolin_measure\n"
        f"assert main(['julia-cloud', '--config', {str(cfg_path)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "brolin_measure(Poly((0.3, -0.5, 0.0, 1.0)), 'periodic', 3)\n"
        "assert 'numpy.polynomial' not in sys.modules, "
        "'numpy.polynomial loaded'")


# the submodules `import henonlab` registers without running their bodies
LAZY = ("dynamics", "cycles", "measures", "symbolic", "periodic2d", "poly1d",
        "potential")
# a lazily registered module has run once its class is plain ModuleType
# again; type() reads the class without triggering the load
_RAN = ("import sys, types\n"
        "def ran(*names):\n"
        "    return [n for n in names if type(sys.modules['henonlab.' + n])"
        " is types.ModuleType]\n")


def _traced_layers() -> dict:
    """The henonlab modules the benchmark tracer looks up in sys.modules,
    each with the names it wraps there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_traced_names_exist():
    # the tracer wraps getattr(henonlab.<layer>, name) for every listed
    # name: deleting one breaks every traced benchmark run
    for layer, names in _traced_layers().items():
        home = importlib.import_module(f"henonlab.{layer}")
        assert [n for n in names if not hasattr(home, n)] == [], layer


def test_cli_import_runs_no_library_module():
    layers = list(_traced_layers())
    assert {"potential", "poly1d", "periodic2d"} <= set(layers)
    _run_fresh(_RAN + "import henonlab.cli\n"
               f"assert ran(*{LAZY!r}) == [], ran(*{LAZY!r})\n"
               # the tracer indexes sys.modules for each layer
               f"for layer in {layers!r}:\n"
               "    assert 'henonlab.' + layer in sys.modules, layer\n")


@pytest.mark.parametrize("jobs, unrun", [
    ([dict(TINY_RENDER, mode="plus"),
      {"command": "render-green", "mode": "poly", "params": BASILICA_PARAMS,
       "window": {"width": 4.0, "height": 3.0, "pixels": [24, 16]},
       "budgets": {"n_max": 200}}],
     ("periodic2d", "symbolic", "measures", "cycles")),
    ([TINY_CLOUD],
     ("periodic2d", "symbolic", "measures", "cycles", "dynamics",
      "potential")),
    ([{"command": "periodic-report", "budgets": {"level_max": 3,
                                                 "budget": 64}}],
     ("potential", "poly1d")),
    ([{"command": "entropy-report", "budgets": {"word_max": 4,
                                                "budget": 64}}],
     ("potential", "poly1d")),
], ids=["render-green", "julia-cloud", "periodic-report", "entropy-report"])
def test_command_runs_only_its_modules(tmp_path, jobs, unrun):
    # a CLI call executes just the library modules its command calls
    argvs = []
    for i, doc in enumerate(jobs):
        cfg_path = tmp_path / f"job{i}.json"
        cfg_path.write_text(json.dumps(doc))
        argvs.append([doc["command"], "--config", str(cfg_path),
                      "--out", str(tmp_path / f"out{i}")])
    _run_fresh(_RAN + "from henonlab.cli import main\n"
               f"for argv in {argvs!r}:\n"
               "    assert main(argv) == 0, argv\n"
               f"assert ran(*{unrun!r}) == [], ran(*{unrun!r})\n")
