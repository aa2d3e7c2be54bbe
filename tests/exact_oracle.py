"""Exact rational disk checks, kept as a test oracle.

Every binary64 number is a ``Fraction``, so a complex float is a pair of
them and every containment below is decided without rounding.  Squared
distances are compared, which keeps the square roots out.
"""

from fractions import Fraction


def exact(z) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a float or complex float, exactly."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def recip(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def in_disk(z, mid, rad) -> bool:
    """Whether the exact point ``z`` lies in the float disk ``<mid, rad>``."""
    m = exact(mid)
    dr, di = z[0] - m[0], z[1] - m[1]
    r = Fraction(rad)
    return dr * dr + di * di <= r * r


def disk_in_disk(cmid, crad, mid, rad) -> bool:
    """Whether the exact disk ``<cmid, crad>`` lies in the float disk ``<mid, rad>``."""
    m = exact(mid)
    slack = Fraction(rad) - crad
    dr, di = cmid[0] - m[0], cmid[1] - m[1]
    return slack >= 0 and dr * dr + di * di <= slack * slack


def recip_image(c, r) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """The exact image ``<conj(c) / (|c|^2 - r^2), r / (|c|^2 - r^2)>`` of ``1 / <c, r>``."""
    cr, ci = exact(c)
    r = Fraction(r)
    d = cr * cr + ci * ci - r * r
    return (cr / d, -ci / d), r / d
