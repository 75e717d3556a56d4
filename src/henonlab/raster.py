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


def pgm_bytes(img, comments=()) -> bytes:
    arr = _as_bytes_image(img)
    return _header(comments, arr.shape[1], arr.shape[0]) + arr.tobytes(order="C")


def write_pgm(path, img, comments=()) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(img, comments))


def grayscale_log(values) -> np.ndarray:
    """Monotone gray map on log(1+v): zeros and non-finite cells black,
    positive values spread over 1..255."""
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape, dtype=np.uint8)
    good = np.isfinite(v) & (v > 0.0)
    if not good.any():
        return out
    vmax = float(v[good].max())
    if vmax <= 0.0:
        return out
    scaled = np.log1p(v[good]) / np.log1p(vmax)
    out[good] = (1.0 + np.rint(254.0 * scaled)).astype(np.uint8)
    return out


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
