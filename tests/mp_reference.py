"""High-precision references that share no code with the kernels.

An 80-digit escape rate and 60-digit polynomial roots.  They read only
the data types `MapParams` and `Poly` from henonlab and work in mpmath,
so a wrong answer that the float kernels give stably is not repeated
here.  An orbit is followed until its max-norm passes 1e200, where the
tail that is left, relative 1e-200 and less, is far below a double's
rounding.
"""

from __future__ import annotations

import mpmath

from henonlab.dynamics import MapParams
from henonlab.poly1d import Poly

DIGITS = 80
ESCAPED = mpmath.mpf("1e200")
ROOT_DIGITS = 60


def escape_rate(point, params, direction: str = "plus",
                max_steps: int = 100_000) -> float:
    """The escape rate at point, to a double.

    - `plus`: params is a MapParams and point (x, y); the forward map
      (x, y) -> (a - x^2 - b y, x); log max(|x_n|, |y_n|) / 2^n.
    - `minus`: the inverse map (x, y) -> (y, (a - y^2 - x) / b);
      (log max(|x_n|, |y_n|) - log|b|) / 2^n, the form in which the 1/b
      each step picks up telescopes.
    - `poly`: params is a Poly and point z; log|f^n(z)| / d^n.

    Raises ValueError if the orbit has not escaped after max_steps."""
    with mpmath.workdps(DIGITS):
        if direction == "poly":
            if not isinstance(params, Poly):
                raise TypeError("poly needs a Poly")
            coeffs = [mpmath.mpc(c) for c in params.coeffs]
            w = mpmath.mpc(point)
            for n in range(max_steps + 1):
                if abs(w) > ESCAPED:
                    return float(mpmath.log(abs(w))
                                 / mpmath.mpf(params.degree) ** n)
                w = mpmath.polyval(coeffs[::-1], w)
        else:
            if not isinstance(params, MapParams):
                raise TypeError(f"{direction} needs a MapParams")
            a, b = mpmath.mpc(params.a), mpmath.mpc(params.b)
            x, y = (mpmath.mpc(v) for v in point)
            shift = mpmath.log(abs(b)) if direction == "minus" else 0
            for n in range(max_steps + 1):
                norm = max(abs(x), abs(y))
                if norm > ESCAPED:
                    return float((mpmath.log(norm) - shift)
                                 / mpmath.mpf(2) ** n)
                if direction == "plus":
                    x, y = a - x * x - b * y, x
                elif direction == "minus":
                    x, y = y, (a - y * y - x) / b
                else:
                    raise ValueError(f"unknown direction {direction!r}")
    raise ValueError(f"no escape within {max_steps} steps")


def polyroots(coeffs) -> list:
    """Every root of the polynomial with ascending complex coefficients,
    as mpc at ROOT_DIGITS digits (`mpmath.polyroots`, with working
    precision to spare for clustered roots)."""
    with mpmath.workdps(ROOT_DIGITS):
        return mpmath.polyroots([mpmath.mpc(c) for c in coeffs[::-1]],
                                maxsteps=200, extraprec=2 * ROOT_DIGITS)


def poly_at(coeffs, z) -> tuple:
    """|p(z)|, |p'(z)| and sum |c_i| |z|^i of the polynomial with
    ascending complex coefficients at the point z, at ROOT_DIGITS digits."""
    with mpmath.workdps(ROOT_DIGITS):
        c = [mpmath.mpc(v) for v in coeffs[::-1]]
        w = mpmath.mpc(z)
        d = len(c) - 1
        dc = [v * (d - i) for i, v in enumerate(c[:-1])]
        return (abs(mpmath.polyval(c, w)), abs(mpmath.polyval(dc, w)),
                mpmath.polyval([abs(v) for v in c], abs(w)))
