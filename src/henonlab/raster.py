"""Deterministic binary raster output: P5 grayscale.

Headers carry caller-supplied comment lines (config hash, tool version);
no timestamps, so equal inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _header(comments, width: int, height: int) -> bytes:
    lines = ["P5"]
    for c in comments:
        text = str(c)
        if "\n" in text or "\r" in text:
            raise ContractError("raster comments must be single lines")
        lines.append("# " + text)
    lines.append(f"{width} {height}")
    lines.append("255")
    return ("\n".join(lines) + "\n").encode("ascii")


def _as_bytes_image(img) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ContractError("image must be 2-dimensional")
    if arr.dtype != np.uint8:
        if np.issubdtype(arr.dtype, np.integer):
            if arr.min() < 0 or arr.max() > 255:
                raise ContractError("pixel values must lie in 0..255")
            arr = arr.astype(np.uint8)
        else:
            raise ContractError("image must be integer-valued")
    return arr


# elements per band: the stages below hold a band-sized float temporary at
# a time, never a raster-sized one
BAND = 2 ** 13


def _bands(shape):
    """Index blocks of a 2-D shape in row-major order, each of at most BAND
    elements: whole rows, or pieces of one row where a row is longer.  A
    block of any array, a flipped or sliced view too, is a view."""
    height, width = shape
    cols = max(1, min(width, BAND))
    rows = max(1, BAND // cols)
    for i in range(0, height, rows):
        for j in range(0, width, cols):
            yield np.s_[i:i + rows, j:j + cols]


def write_pgm(path, img, comments=()) -> None:
    """Write the header, then the image a band at a time: a C-ordered
    image straight from its buffer, any other (a flipped view) through one
    band-sized copy at a time."""
    arr = _as_bytes_image(img)
    with open(path, "wb") as fh:
        fh.write(_header(comments, arr.shape[1], arr.shape[0]))
        for band in _bands(arr.shape):
            fh.write(np.ascontiguousarray(arr[band]))


def grayscale_log(values) -> np.ndarray:
    """Monotone gray map on log(1+v) of a 2-D array: zeros and non-finite
    cells black, positive values spread over 1..255 as
    1 + rint(254 log1p(v) / log1p(vmax)), worked out a band at a time."""
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape, dtype=np.uint8)
    good = np.isfinite(v)
    good &= v > 0.0
    vmax = float(np.max(v, where=good, initial=0.0))
    if vmax <= 0.0:
        return out
    top = np.log1p(vmax)
    for band in _bands(v.shape):
        g = good[band]
        x = v[band][g]
        # a fresh gather, so each step of the formula rounds once, in place
        np.log1p(x, out=x)
        x /= top
        x *= 254.0
        np.rint(x, out=x)
        x += 1.0
        out[band][g] = x
    return out


def masked_histogram(values, mask, bins: int, value_range: tuple) -> tuple:
    """np.histogram(values[mask], bins, value_range) of a 2-D array, as
    counts summed over bands: with the range fixed the edges do not depend
    on the data, and each value's bin does not depend on its neighbours."""
    counts, edges = np.histogram(values[:0], bins=bins, range=value_range)
    for band in _bands(values.shape):
        counts += np.histogram(values[band][mask[band]], bins=bins,
                               range=value_range)[0]
    return counts, edges


def density_counts(points, center: complex, width: float, height: float,
                   nx: int, ny: int) -> np.ndarray:
    """Cell counts of a planar point cloud over a fixed window.

    Row 0 is the bottom of the window (small imaginary part), matching the
    row-major grid convention used elsewhere.
    """
    if nx < 1 or ny < 1 or width <= 0 or height <= 0:
        raise ContractError("window must have positive size")
    p = np.asarray(points, dtype=complex).ravel()
    x_edges = np.linspace(center.real - 0.5 * width, center.real + 0.5 * width,
                          nx + 1)
    y_edges = np.linspace(center.imag - 0.5 * height,
                          center.imag + 0.5 * height, ny + 1)
    counts, _, _ = np.histogram2d(p.imag, p.real, bins=(y_edges, x_edges))
    return counts
