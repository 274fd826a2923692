"""Natural cubic splines: the package's one spline fit.

``evolve`` fits every source row of a grid at once and samples the fits on
lag lattices; a tabulated barrier fits its potential once, as one column,
and reads values, roots (the clip's kinks) and critical points from that fit.
"""

from __future__ import annotations

import numpy as np


class NaturalSplines:
    """Natural cubic splines through every column of ys on the shared knots x.

    One Thomas sweep over the knots, vectorised across columns, gives each
    column's second derivatives M, zero at both ends (de Boor, *A Practical
    Guide to Splines*, ch. IV). On [x_i, x_i+1], with d = x - x_i, a column
    is y_i + d (s_i + d (M_i / 2 + d (M_i+1 - M_i) / (6 h_i))), where s_i is
    the slope at x_i. Past the end knots a column continues as its end
    piece's cubic.
    """

    def __init__(self, x, ys):
        self.x = x = np.asarray(x, dtype=float)
        ys = np.asarray(ys, dtype=float)
        h = np.diff(x)[:, None]
        chord = np.diff(ys, axis=0) / h
        # interior knot k: h_k-1 M_k-1 + 2 (h_k-1 + h_k) M_k + h_k M_k+1 = rhs_k,
        # swept row by row: a row is a numpy row across the columns, or a
        # float for one column, whose arithmetic is the same and far faster
        m = np.zeros_like(ys)
        rhs = m[1:-1]
        np.multiply(np.diff(chord, axis=0), 6.0, out=rhs)
        rows = list(rhs) if ys.shape[1] > 1 else rhs[:, 0].tolist()
        hs = h[:, 0].tolist()
        diag = [2.0 * (a + b) for a, b in zip(hs[:-1], hs[1:])]
        for k in range(1, len(diag)):
            w = hs[k] / diag[k - 1]
            diag[k] -= w * hs[k]
            rows[k] -= w * rows[k - 1]
        below = 0.0
        for k in range(len(diag) - 1, -1, -1):
            rows[k] /= diag[k]
            rows[k] -= hs[k + 1] / diag[k] * below
            below = rows[k]
        rhs[...] = np.reshape(rows, rhs.shape)
        # coef[col] = (y, slope, M/2, dM/6h), each over the intervals
        self.coef = coef = np.empty((ys.shape[1], 4, len(h)))
        coef[:, 0] = ys[:-1].T
        coef[:, 1] = (chord - h * (2.0 * m[:-1] + m[1:]) / 6.0).T
        coef[:, 2] = 0.5 * m[:-1].T
        coef[:, 3] = (np.diff(m, axis=0) / (6.0 * h)).T
        self.dx = (x[-1] - x[0]) / (len(x) - 1)   # the mean knot spacing

    def _horner(self, col, i, d):
        """Column col's piece i at offset d from its left knot."""
        y, slope, half_m, dm = self.coef[col]
        vals = dm.take(i)
        for c in (half_m, slope, y):
            vals *= d
            vals += c.take(i)
        return vals

    def sample(self, col, starts, step, n):
        """Column col at starts[k] + m step, m < n, one row per start, on
        uniform knots; 0 off [x0, x_end]."""
        x = self.x
        pts = np.asarray(starts, dtype=float)[:, None] + step * np.arange(n)
        # interval floor((pts - x0) / dx), clipped into range before the
        # cast, which truncates as floor does on what is left
        u = np.minimum((pts - x[0]) / self.dx, len(x) - 2)
        i = np.maximum(u, 0.0, out=u).astype(np.intp)
        vals = self._horner(col, i, pts - x[:-1].take(i))
        np.copyto(vals, 0.0, where=(pts < x[0]) | (pts > x[-1]))
        return vals

    def __call__(self, pts):
        """The first column at the points pts, on any knots."""
        pts = np.asarray(pts, dtype=float)
        i = np.searchsorted(self.x[1:-1], pts, side="right")
        return self._horner(0, i, pts - self.x.take(i))

    def roots(self, deriv=False):
        """Sorted distinct real roots on [x_0, x_end] of the first column, or
        of its derivative: companion-matrix eigenvalues of each piece that can
        vanish on its interval, polished by one Newton step. A root within
        1e-12 of a piece's width of a knot is that knot."""
        x, width = self.x, np.diff(self.x)
        c = self.coef[0, 1:] * np.array([[1.0], [2.0], [3.0]]) if deriv else self.coef[0]
        # |p(d) - p(0)| < sum_k |c_k| d^k where p can vanish on [0, width],
        # and an identically zero piece has no root to report
        span = sum(np.abs(ck) * width ** k for k, ck in enumerate(c[1:], 1))
        pieces = np.nonzero(np.abs(c[0]) < span)[0]
        degree = len(c) - 1 - np.argmax(c[:0:-1, pieces] != 0.0, axis=0)
        d, i = [np.empty(0)], [np.empty(0, dtype=np.intp)]
        for n in np.unique(degree).tolist():
            sel = pieces[degree == n]
            companion = np.zeros((len(sel), n, n))
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            companion[:, :, -1] = -(c[:n, sel] / c[n, sel]).T
            z = np.linalg.eigvals(companion) + 0j
            rows, cols = np.nonzero(z.imag == 0.0)
            d.append(z.real[rows, cols])
            i.append(sel[rows])
        d, i = np.concatenate(d), np.concatenate(i)
        value, slope = c[-1, i], 0.0
        for ck in c[-2::-1, i]:
            value, slope = value * d + ck, slope * d + value
        d = d - np.divide(value, slope, out=np.zeros_like(d), where=slope != 0.0)
        tol = 1e-12 * width[i]
        q = np.where(np.abs(d) <= tol, x[i],
                     np.where(np.abs(d - width[i]) <= tol, x[i + 1], x[i] + d))
        return np.unique(q[(d >= -tol) & (d <= width[i] + tol) & (q >= x[0]) & (q <= x[-1])])
