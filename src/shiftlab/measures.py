"""Product measures on bi-infinite sequence spaces.

Measures are given by lazy marginal families: a callable
``n -> np.shape(n) + (A,) array`` of probability vectors over the symbols
0 .. A-1, so a measure is its marginals alone and A is the width of the
table they return (no infinite data is ever stored).
Index ranges are always explicit, inclusive ``(lo, hi)`` pairs, and every
diagnostic that truncates a sum over the integers reports the partial sum
together with its last-decade increment so convergence can be audited.

The module provides:
  * ``FiniteProductMeasure`` / ``DensityFamily`` types,
  * the built-in marginal families (half-stationary ``nu_c``, perturbed
    ``mu^(p,c)``, plain i.i.d.),
  * log Radon-Nikodym sums for shifts, read with one ``density`` call per
    term over whole index arrays,
  * ``binary_rows``, the one reader of a binary marginal block, which
    refuses every other symbol count,
  * the joint law of a block of independent binary symbols,
  * Kakutani-style squared-distance terms and their centred partial sums,
  * the randomized-product-measure (RPM) operation, which mixes a measure
    coordinatewise with an external i.i.d. source.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .sampling import Window

PROB_TOL = 1e-12
DENSITY_TOL = 1e-10


class ZeroMassError(ValueError):
    """A log-RN or bias evaluation hit zero marginal mass."""


def _as_vector(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def _first_at(n, bad):
    """The entry of ``n`` at the first True of ``bad``, broadcast together."""
    n, bad = np.broadcast_arrays(n, bad)
    return n[np.unravel_index(np.argmax(bad), bad.shape)]


@dataclass(frozen=True)
class FiniteProductMeasure:
    """Product measure on the symbols 0 .. A-1 at every coordinate.

    ``marginals(n)`` returns the probability vectors of the indices ``n``
    (an int or an int array), column x holding the mass of symbol x, as one
    array of shape ``np.shape(n) + (A,)``, or one vector for every n.  It is
    the only definition of the family, read through ``table``, and A is the
    width of what it returns: every diagnostic reads whole index arrays, so
    sampling a 10^6-coordinate window or summing over |n| <= 10^6 pays no
    Python call per coordinate.
    """

    marginals: Callable[[np.ndarray], np.ndarray]

    def table(self, n) -> np.ndarray:
        """``marginals(n)``, validated (finite, nonnegative and summing to 1
        at every index) and broadcast to ``np.shape(n) + (A,)``."""
        p = np.asarray(self.marginals(n), dtype=float)
        self._validate(p, n)
        return np.broadcast_to(p, np.shape(n) + p.shape[-1:])

    def block(self, start: int, length: int) -> Window:
        """Window of the (L, A) marginals at ``start .. start+length-1``.

        ``marginals`` is read on the first ``BLOCK_ROWS`` indices.  If it
        returns one vector for them all, the block is that validated row,
        broadcast to L rows (a read-only view with a zero row stride); no
        index array or (L, A) array is built.  Otherwise one (L, A) array
        is filled through ``table``, ``BLOCK_ROWS`` rows at a time: the
        first piece holding a bad row names its first one, as one table
        over the whole block does when its bad rows are of one kind (a
        non-finite or negative mass is named before a wrong sum)."""
        rows = sampling.BLOCK_ROWS
        n = np.arange(start, start + min(length, rows))
        p = np.asarray(self.marginals(n), dtype=float)
        self._validate(p, n)
        if p.ndim == 1:
            return Window(start, np.broadcast_to(p, (length,) + p.shape))
        out = np.empty((length,) + p.shape[-1:])
        out[:len(n)] = p
        for s in range(len(n), length, rows):
            out[s:s + rows] = self.table(
                np.arange(start + s, start + min(s + rows, length)))
        return Window(start, out)

    def density(self, n, x) -> np.ndarray:
        """Mass of symbol ``x`` at index ``n`` (against counting measure),
        broadcast together."""
        n, x = np.broadcast_arrays(n, x)
        return np.take_along_axis(self.table(n), x[..., None], -1)[..., 0]

    def _validate(self, p: np.ndarray, n) -> None:
        ok = np.isfinite(p) & (p >= 0)
        # one flat test; the row-wise reduction, slow over a length-A last
        # axis, only names the first bad index
        if not ok.all():
            raise ValueError("non-finite or negative mass in marginal at "
                             f"index {_first_at(n, ~ok.all(-1))}")
        # column adds: the same floats as a row sum for short rows, without
        # numpy's slow reduction over a length-A last axis
        s = p[..., 0].copy()
        for j in range(1, p.shape[-1]):
            s += p[..., j]
        s -= 1.0  # in place: a 10^6-index check holds one float per index
        off = np.abs(s, out=s) > PROB_TOL
        if off.any():
            raise ValueError(f"marginal at index {_first_at(n, off)} sums to "
                             f"{float(_first_at(p.sum(-1), off))!r}, not 1")


@dataclass(frozen=True)
class DensityFamily:
    """Indexed family of piecewise-constant probability densities.

    ``pieces(n)`` returns the tables of the indices ``n``: edges of shape
    ``np.shape(n) + (P+1,)``, increasing from ``support[0]`` to
    ``support[1]``, and values of shape ``np.shape(n) + (P,)``, one per
    piece (zero-length pieces are allowed), or one table for every n.
    They are the only definition of the family, read through ``table``.
    """

    support: tuple[float, float]
    pieces: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def table(self, n) -> tuple[np.ndarray, np.ndarray]:
        """``pieces(n)``, each broadcast to ``np.shape(n)`` leading axes."""
        edges, values = (np.asarray(t, dtype=float) for t in self.pieces(n))
        if edges.shape[-1] != values.shape[-1] + 1:
            raise ValueError("a piece table needs one edge more than values")
        return (np.broadcast_to(edges, np.shape(n) + edges.shape[-1:]),
                np.broadcast_to(values, np.shape(n) + values.shape[-1:]))

    def density(self, n, u) -> np.ndarray:
        """Table lookup of generation ``n`` at ``u``, broadcast together:
        right-continuous, and 0 off the support (its right end included)."""
        edges, values = self.table(n)
        idx = (edges <= np.asarray(u, dtype=float)[..., None]).sum(-1) - 1
        inside = (idx >= 0) & (idx < values.shape[-1])
        rows = np.broadcast_to(values, idx.shape + values.shape[-1:])
        at = np.take_along_axis(rows, np.where(inside, idx, 0)[..., None], -1)
        return np.where(inside, at[..., 0], 0.0)

    def integral(self, n) -> np.ndarray:
        """Exact integral (sum of value * length over the pieces)."""
        edges, values = self.table(n)
        return (values * np.diff(edges, axis=-1)).sum(-1)

    def validate(self, n) -> None:
        """Raise ``ValueError`` at the first index of ``n`` whose table is
        not a density on the support: nondecreasing edges from end to end,
        nonnegative values, integral 1."""
        edges, values = self.table(n)
        total, (lo, hi) = self.integral(n), self.support
        bad = (np.diff(edges, axis=-1) < 0).any(-1) | (values < 0).any(-1) \
            | (edges[..., 0] != lo) | (edges[..., -1] != hi) \
            | (np.abs(total - 1.0) > DENSITY_TOL)
        if bad.any():
            raise ValueError(f"piece table at index {_first_at(n, bad)} is "
                             f"not a density on [{lo}, {hi}] (integral "
                             f"{float(_first_at(total, bad))!r})")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def inverse_sqrt(n) -> np.ndarray:
    """a_n = 1/sqrt(n) for n >= 1, else 0, vectorized over ``n``."""
    n = np.asarray(n, dtype=float)
    pos = n >= 1
    return np.where(pos, 1.0 / np.sqrt(np.where(pos, n, 1.0)), 0.0)


def log_damped(n) -> np.ndarray:
    """a_n = 1/((n+4) log(n+4)) for n >= 2, else 0, vectorized over ``n``."""
    n = np.asarray(n, dtype=float)
    m = np.where(n >= 2, n, 2.0) + 4.0
    return np.where(n >= 2, 1.0 / (m * np.log(m)), 0.0)


def iid(vector) -> FiniteProductMeasure:
    """I.i.d. measure on {0, 1, ..., len(vector)-1}."""
    v = _as_vector(vector)
    return FiniteProductMeasure(lambda n: v)


def iid_binary(p0: float) -> FiniteProductMeasure:
    return iid((p0, 1.0 - p0))


def nu_c_zero_mass(n, c):
    """Perturbation of the half-stationary family, vectorized over ``n``."""
    n = np.asarray(n)
    pos = n >= 1
    val = np.where(pos, c / np.sqrt(np.where(pos, n, 1)), 0.0)
    return np.where(val < 0.5, val, 0.0)


def make_nu_c(c: float) -> FiniteProductMeasure:
    """Half-stationary binary measure: marginal(n)(0) = 1/2 + c/sqrt(n)
    for n >= 1 as long as the perturbation stays below 1/2, and 1/2
    elsewhere."""
    if c <= 0:
        raise ValueError("c must be positive")

    def marginals(n) -> np.ndarray:
        a = nu_c_zero_mass(n, c)
        p = np.empty(a.shape + (2,))
        np.add(0.5, a, out=p[..., 0])
        np.subtract(0.5, a, out=p[..., 1])
        return p

    return FiniteProductMeasure(marginals)


def make_mu_pc(p0: float, c: float,
               a: Callable[[np.ndarray], np.ndarray]) -> FiniteProductMeasure:
    """Binary measure with marginal(n)(0) = p0 + c a(n), where ``a`` maps an
    int array of indices to the float array of their perturbations.  P(0)
    falls back to p0 wherever the perturbed value leaves the open interval
    (0, 1); the closed endpoints fall back too, so no mass can reach 0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")

    def marginals(n) -> np.ndarray:
        v = p0 + c * a(np.asarray(n))
        m0 = np.where((v > 0.0) & (v < 1.0), v, p0)
        p = np.empty(m0.shape + (2,))
        p[..., 0] = m0
        np.subtract(1.0, m0, out=p[..., 1])
        return p

    return FiniteProductMeasure(marginals)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def block_rows(block: Window, first: int, last: int) -> Window:
    """The sub-block over indices ``first .. last`` of a marginal block;
    raises ``ValueError`` naming the indices it misses."""
    lo, hi = block.span
    gaps = ((first, min(last, lo - 1)), (max(first, hi + 1), last))
    missing = [f"{a} .. {b}" for a, b in gaps if a <= b]
    if missing:
        raise ValueError(f"block over indices {lo} .. {hi} misses "
                         f"{' and '.join(missing)}")
    return Window(first, block.values[first - lo:last - lo + 1])


def binary_rows(block: Window) -> np.ndarray:
    """The (L, 2) masses of a binary marginal block; raises ``ValueError``
    for any other symbol count."""
    p = block.values
    if p.shape[1] != 2:
        raise ValueError(f"two-symbol alphabet required, not {p.shape[1]} "
                         f"symbols")
    return p


def doeblin_delta(block: Window) -> float:
    """Infimum of all masses of a marginal block, 0 if some mass vanishes,
    in one pass.  A block that is one broadcast row (a zero row stride, as
    an i.i.d. measure's block is) has one row to read."""
    p = block.values
    low = float((p[:1] if p.strides[0] == 0 else p).min())
    return 0.0 if low == 0.0 else low


def kakutani_terms(block: Window, k: int, N: int,
                   m: FiniteProductMeasure) -> np.ndarray:
    """(marginal(n)(0) - marginal(n-k)(0))^2 for n = -N .. N (k = 0 gives
    exact zeros) of the binary measure ``m``, read from the rows -N .. N
    of its marginal block ``block`` and filled ``BLOCK_ROWS`` terms at a
    time.  A piece reads its rows n-k from the block where the block holds
    them all and from ``m.block`` otherwise, so a lag the block does not
    hold costs no rows beyond its terms."""
    lo, hi, L = *block.span, 2 * N + 1
    p0 = binary_rows(block_rows(block, -N, N))[:, 0]
    out = np.empty(L)
    for s in range(0, L, sampling.BLOCK_ROWS):
        piece = out[s:s + sampling.BLOCK_ROWS]
        first = -N - k + s
        last = first + len(piece) - 1
        if lo <= first and last <= hi:
            lag = block.values[first - lo:last - lo + 1, 0]
        else:
            lag = binary_rows(m.block(first, len(piece)))[:, 0]
        np.subtract(p0[s:s + len(piece)], lag, out=piece)
        np.square(piece, out=piece)
    return out


def centred_sum(terms: np.ndarray, n: int) -> float:
    """Sum over |index| <= n of a centred term array (index -N .. N)."""
    N = len(terms) // 2
    if not 0 <= n <= N:
        raise ValueError(f"partial sum at {n} outside 0 .. {N}")
    return float(np.sum(terms[N - n:N + n + 1]))


def sum_with_tail(terms: np.ndarray) -> tuple[float, float]:
    """(sum at N, that minus the sum at max(N//10, 1)) of 2N+1 terms, N >= 1."""
    N = len(terms) // 2
    value = centred_sum(terms, N)
    return value, value - centred_sum(terms, max(N // 10, 1))


def block_law(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Joint law of independent binary symbols over the 2^k patterns of a
    block, from their P(0) and P(1) columns of shape (..., k), as shape
    (..., 2^k); the first symbol is the most significant bit of the
    pattern index."""
    law = np.ones(p0.shape[:-1] + (1,))
    for j in range(p0.shape[-1]):
        law = np.stack([law * p0[..., j, None], law * p1[..., j, None]],
                       axis=-1).reshape(p0.shape[:-1] + (-1,))
    return law


def _log_mass(m, n, x) -> np.ndarray:
    """log m_n(x), broadcast over ``n`` and ``x``; raises ``ZeroMassError``
    naming the first index with zero mass."""
    mass = m.density(n, x)
    zero = mass <= 0.0
    if zero.any():
        raise ZeroMassError(f"zero mass at index {_first_at(n, zero)} "
                            f"(symbol {_first_at(x, zero)})")
    return np.log(mass)


def log_rn_shift(m, k: int, w) -> float:
    """Finite-window log Radon-Nikodym partial sum for the k-step shift:
    sum over window indices n of log(m_{n-k}(x_n) / m_n(x_n)).

    Works for both finite-alphabet measures and density families.
    """
    n = np.arange(w.start, w.stop)
    return float(np.sum(_log_mass(m, n - k, w.values)
                        - _log_mass(m, n, w.values)))


# ---------------------------------------------------------------------------
# RPM operation
# ---------------------------------------------------------------------------

def rpm(m: FiniteProductMeasure, p: float, alpha) -> FiniteProductMeasure:
    """Randomized product measure: each coordinate keeps m with probability
    p and is replaced by an independent alpha-draw otherwise, so
    marginal(n) = p * m_n + (1-p) * alpha, exactly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    av = _as_vector(alpha)
    if len(av) != m.table(0).shape[-1]:
        raise ValueError("alpha must live on the same alphabet")
    return FiniteProductMeasure(lambda n: p * m.table(n) + (1.0 - p) * av)


# ---------------------------------------------------------------------------
# Textual family specs (CLI / config entry point)
# ---------------------------------------------------------------------------

_MEASURE_FAMILIES = {     # name: (parameter names, builder)
    "iid": (("p0",), iid_binary),
    "nu_c": (("c",), make_nu_c),
    # inverse_sqrt is looked up at each build, so a rebound module
    # attribute (a call counter, say) is the one the measure calls
    "mu": (("p", "c"), lambda p, c: make_mu_pc(p, c, inverse_sqrt)),
}


def parse_measure(text: str) -> FiniteProductMeasure:
    """Build a measure from a compact textual spec.

    Formats (every number finite):
      ``iid:<p0>``        i.i.d. binary with P(0) = p0
      ``nu_c:<c>``        half-stationary family with parameter c
      ``mu:<p>,<c>``      p + c/sqrt(n) family (clamped)
    """
    name, _, rest = text.partition(":")
    if name not in _MEASURE_FAMILIES:
        raise ValueError(f"bad measure spec {text!r}: unknown measure "
                         f"family {name!r}")
    params, build = _MEASURE_FAMILIES[name]
    try:
        args = [float(s) for s in rest.split(",")]
        if len(args) != len(params):
            raise ValueError(
                f"{name} takes {len(params)} "
                f"number{'s' if len(params) > 1 else ''} "
                f"({','.join(params)}), got {len(args)}")
        if not all(math.isfinite(v) for v in args):
            raise ValueError("every number must be finite")
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"bad measure spec {text!r}: {exc}") from exc
