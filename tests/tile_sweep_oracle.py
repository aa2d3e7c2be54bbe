"""The single-pass tile back-substitution, kept as a test oracle.

``sylvenc.krawczyk.interval_back_substitute`` runs two recurrences in turn:
a midpoint sweep that divides each unknown by its denominator and keeps the
magnitudes of the numerators, and a radius sweep in real arithmetic that
reads them.  These are the sweeps it replaced: one interval sweep that
carries midpoint and radius of every unknown together, and a midpoint-only
sweep for the approximate solution.  Both rest on the same roundings, so the
split sweeps give their bits.
"""

import numpy as np

from sylvenc.intervals import IMatrix, _dot_ops, _pad_rad, _quot, _slack, as_imatrix
from sylvenc.krawczyk import _tiles


def _factors(blocks, a, p):
    """The factors ``(col_b, row_a, col_d, row_c)`` of row ``p`` in every tile."""
    DA, DC, DB, DD = blocks
    k, r = divmod(p, a)
    return (
        DB[None, :, k:, k, None], DA[:, None, None, r, :],
        DD[None, :, k:, k, None], DC[:, None, None, r, :],
    )


def interval_back_substitute(ps, rhs):
    """Enclosure of ``unvec(Lambda^-1 vec(rhs))``, midpoints and radii in one sweep."""
    m, n = ps.m, ps.n
    rhs = as_imatrix(rhs)
    if rhs.shape != (m, n):
        raise ValueError("dimension mismatch")
    out_mid = np.zeros((m, n), dtype=np.complex128)
    out_rad = np.zeros((m, n))
    for a, blocks, ix, (f_mid, f_rad, rec_mid, rec_rad) in _tiles(
        ps, rhs.mid, rhs.rad, ps.rec.mid, ps.rec.rad
    ):
        z_mid = np.zeros(f_mid.shape, dtype=np.complex128)
        z_rad = np.zeros(f_mid.shape)
        last = f_mid.shape[-1] - 1
        for p in range(last, -1, -1):
            num_mid, num_rad = f_mid[..., p], f_rad[..., p]
            if p < last:
                r = p % a
                col_b, row_a, col_d, row_c = _factors(blocks, a, p)
                flat = f_mid.shape[:2] + (-1,)
                t_mid = (col_b * row_a + col_d * row_c).reshape(flat)[..., r + 1 :]
                t_rad = _slack(np.abs(col_b) * np.abs(row_a) + np.abs(col_d) * np.abs(row_c), 6)
                t_rad = t_rad.reshape(flat)[..., r + 1 :]
                zm, zr = z_mid[..., p + 1 :], z_rad[..., p + 1 :]
                at, az = np.abs(t_mid), np.abs(zm)
                dot_mid = (t_mid * zm).sum(axis=-1)
                dot_rad = (
                    (at * zr).sum(axis=-1) + (t_rad * az).sum(axis=-1) + (t_rad * zr).sum(axis=-1)
                )
                dot_rad = _pad_rad(dot_rad, (at * az).sum(axis=-1), _dot_ops(last - p))
                num_mid = num_mid - dot_mid
                num_rad = _pad_rad(num_rad + dot_rad, np.abs(num_mid))
            z_mid[..., p], z_rad[..., p] = _quot(num_mid, num_rad, rec_mid[..., p], rec_rad[..., p])
        out_mid[ix] = z_mid.reshape(z_mid.shape[:2] + (-1, a))
        out_rad[ix] = z_rad.reshape(z_mid.shape[:2] + (-1, a))
    return IMatrix(out_mid, out_rad)


def point_back_substitute(ps, f):
    """``unvec(Lambda^-1 vec(f))`` in floating point, dividing by ``ps.den_mid()``."""
    out = np.zeros(f.shape, dtype=np.complex128)
    for a, blocks, ix, (f_t, den) in _tiles(ps, f, ps.den_mid()):
        z = np.zeros(f_t.shape, dtype=np.complex128)
        last = f_t.shape[-1] - 1
        for p in range(last, -1, -1):
            num = f_t[..., p]
            if p < last:
                col_b, row_a, col_d, row_c = _factors(blocks, a, p)
                t = (col_b * row_a + col_d * row_c).reshape(f_t.shape[:2] + (-1,))
                num = num - (t[..., p % a + 1 :] * z[..., p + 1 :]).sum(axis=-1)
            z[..., p] = num / den[..., p]
        out[ix] = z.reshape(z.shape[:2] + (-1, a))
    return out
