"""Product measures on bi-infinite sequence spaces.

Measures are given by lazy marginal families: a callable
``(start, length) -> (length, A) array`` of probability vectors over a fixed
finite alphabet of size A (no infinite data is ever stored).
Index ranges are always explicit, inclusive ``(lo, hi)`` pairs, and every
diagnostic that truncates a sum over the integers reports the partial sum
together with its last-decade increment so convergence can be audited.

The module provides:
  * ``FiniteProductMeasure`` / ``DensityFamily`` / ``SequenceSpec`` types,
  * the built-in marginal families (half-stationary ``nu_c``, perturbed
    ``mu^(p,c)``, plain i.i.d.),
  * log Radon-Nikodym partial sums for shifts and transpositions,
  * Kakutani-style squared-distance terms and their centred partial sums,
  * the random-insertion (RI) and randomized-product-measure (RPM)
    operations, which mix a measure coordinatewise with an external
    i.i.d. source.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

PROB_TOL = 1e-12
DENSITY_TOL = 1e-10


class ZeroMassError(ValueError):
    """A log-RN or bias evaluation hit zero marginal mass."""


def _as_vector(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class FiniteProductMeasure:
    """Product measure with finitely many symbols per coordinate.

    ``marginals(start, length)`` returns the probability vectors of the
    indices ``start .. start+length-1``, aligned with ``alphabet``, as one
    (length, A) array.  It is the only definition of the family: every
    diagnostic reads whole index ranges, so sampling a 10^6-coordinate
    window or summing over |n| <= 10^6 pays no Python call per coordinate.
    """

    alphabet: tuple
    marginals: Callable[[int, int], np.ndarray]

    def probs(self, n: int) -> np.ndarray:
        return self.block(n, 1)[0]

    def block(self, start: int, length: int) -> np.ndarray:
        """Marginals for indices ``start .. start+length-1`` as an (L, A) array."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        p = np.asarray(self.marginals(start, length), dtype=float)
        self._validate(p, start)
        return p

    def _validate(self, p: np.ndarray, start: int) -> None:
        if p.shape[-1] != len(self.alphabet):
            raise ValueError(
                f"marginal length {p.shape[-1]} != alphabet size {len(self.alphabet)}")
        bad = ~(np.isfinite(p) & (p >= 0))
        if np.any(bad):
            n = start + int(np.argwhere(bad)[0][0])
            raise ValueError(
                f"non-finite or negative mass in marginal at index {n}")
        # column adds: the same floats as a row sum for short rows, without
        # numpy's slow reduction over a length-A last axis
        s = p[:, 0].copy()
        for j in range(1, p.shape[1]):
            s += p[:, j]
        off = np.abs(s - 1.0)
        if np.any(off > PROB_TOL):
            i = int(np.argmax(off))
            raise ValueError(
                f"marginal at index {start + i} sums to {float(s[i])!r}, not 1")

    def point_mass(self, n: int, symbol) -> float:
        return float(self.probs(n)[self.alphabet.index(symbol)])


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
            i = np.unravel_index(np.argmax(bad), bad.shape)
            at = np.broadcast_to(n, bad.shape)[i]
            raise ValueError(f"piece table at index {at} is not a density "
                             f"on [{lo}, {hi}] (integral {float(total[i])!r})")

    def point_mass(self, n: int, u: float) -> float:
        return float(self.density(n, u))


@dataclass(frozen=True)
class SequenceSpec:
    """A base probability ``p`` plus a perturbation sequence ``a(n)``.

    ``a`` maps an int array of indices to the float array of their
    perturbations.  Marginals built from a spec clamp back to ``p`` whenever
    the perturbed value leaves the open interval (0, 1); the closed
    endpoints are clamped too, so no marginal mass can reach 0.
    """

    p: float
    a: Callable[[np.ndarray], np.ndarray]

    def marginal_zero(self, n, c: float = 1.0) -> np.ndarray:
        """P(0) = p + c a_n under the clamp rule, vectorized over ``n``."""
        v = self.p + c * self.a(np.asarray(n))
        return np.where((v > 0.0) & (v < 1.0), v, self.p)

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
    alphabet = tuple(range(len(v)))

    def block(start: int, length: int) -> np.ndarray:
        return np.tile(v, (length, 1))

    return FiniteProductMeasure(alphabet, block)


def iid_binary(p0: float) -> FiniteProductMeasure:
    return iid((p0, 1.0 - p0))


def nu_c_zero_mass(n, c):
    """Perturbation of the half-stationary family, vectorized over ``n``."""
    n = np.asarray(n, dtype=float)
    out = np.zeros_like(n)
    pos = n >= 1
    with np.errstate(divide="ignore"):
        val = np.where(pos, c / np.sqrt(np.where(pos, n, 1.0)), 0.0)
    keep = pos & (val < 0.5)
    out[keep] = val[keep]
    return out


def make_nu_c(c: float) -> FiniteProductMeasure:
    """Half-stationary binary measure: marginal(n)(0) = 1/2 + c/sqrt(n)
    for n >= 1 as long as the perturbation stays below 1/2, and 1/2
    elsewhere."""
    if c <= 0:
        raise ValueError("c must be positive")

    def block(start: int, length: int) -> np.ndarray:
        a = nu_c_zero_mass(np.arange(start, start + length), c)
        return np.column_stack([0.5 + a, 0.5 - a])

    return FiniteProductMeasure((0, 1), block)


def make_mu_pc(spec: SequenceSpec, c: float) -> FiniteProductMeasure:
    """Binary measure with marginal(n)(0) = p + c*a_n, clamped to p whenever
    the perturbed value leaves (0, 1)."""
    if not 0.0 < spec.p < 1.0:
        raise ValueError("spec.p must lie in (0, 1)")

    def block(start: int, length: int) -> np.ndarray:
        m0 = spec.marginal_zero(np.arange(start, start + length), c)
        return np.column_stack([m0, 1.0 - m0])

    return FiniteProductMeasure((0, 1), block)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def block_rows(p: np.ndarray, lo: int, first: int, last: int) -> np.ndarray:
    """Rows for indices ``first .. last`` of a marginal block whose row 0 is
    index ``lo``; raises ``ValueError`` naming the indices it misses."""
    hi = lo + len(p) - 1
    gaps = ((first, min(last, lo - 1)), (max(first, hi + 1), last))
    missing = [f"{a} .. {b}" for a, b in gaps if a <= b]
    if missing:
        raise ValueError(f"block over indices {lo} .. {hi} misses "
                         f"{' and '.join(missing)}")
    return p[first - lo:last - lo + 1]


def doeblin_delta(p: np.ndarray, lo: int) -> float:
    """Infimum of all masses of a marginal block whose row 0 is index ``lo``.

    Returns 0 (with a warning naming the first offending index) if some
    mass vanishes in the block.
    """
    if np.any(p == 0.0):
        n = lo + int(np.argwhere(p == 0.0)[0][0])
        warnings.warn(f"zero marginal mass at index {n}", RuntimeWarning)
        return 0.0
    return float(p.min())


def kakutani_terms(p: np.ndarray, lo: int, k: int, N: int) -> np.ndarray:
    """(marginal(n)(0) - marginal(n-k)(0))^2 for n = -N .. N, read from the
    rows of a binary marginal block (row 0 is index ``lo``) that n and n-k
    reach (k = 0 gives exact zeros)."""
    if p.shape[1] != 2:
        raise ValueError("kakutani_terms needs a two-symbol alphabet")
    lead, L = max(k, 0), 2 * N + 1
    p0 = block_rows(p, lo, -N - lead, N - min(k, 0))[:, 0]
    cur, lag = p0[lead:lead + L], p0[lead - k:lead - k + L]
    return (cur - lag) ** 2


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


def log_rn_shift(m, k: int, w) -> float:
    """Finite-window log Radon-Nikodym partial sum for the k-step shift:
    sum over window indices n of log(m_{n-k}(x_n) / m_n(x_n)).

    Works for both finite-alphabet measures and density families.
    """
    total = 0.0
    for n, x in w.items():
        num = m.point_mass(n - k, x)
        den = m.point_mass(n, x)
        if num <= 0.0 or den <= 0.0:
            raise ZeroMassError(f"zero mass at index {n} (symbol {x!r})")
        total += math.log(num) - math.log(den)
    return total


def log_rn_swap(m, i: int, j: int, xi, xj) -> float:
    """Log RN derivative of the transposition (i j) at values (xi, xj):
    log[m_i(xj) m_j(xi)] - log[m_i(xi) m_j(xj)]."""
    if i == j:
        return 0.0
    vals = [m.point_mass(i, xj), m.point_mass(j, xi),
            m.point_mass(i, xi), m.point_mass(j, xj)]
    if any(v <= 0.0 for v in vals):
        raise ZeroMassError(f"zero mass in swap ({i} {j})")
    return math.log(vals[0]) + math.log(vals[1]) - math.log(vals[2]) - math.log(vals[3])


# ---------------------------------------------------------------------------
# RI / RPM operations
# ---------------------------------------------------------------------------

def rpm(m: FiniteProductMeasure, p: float, alpha) -> FiniteProductMeasure:
    """Randomized product measure: each coordinate keeps m with probability
    p and is replaced by an independent alpha-draw otherwise, so
    marginal(n) = p * m_n + (1-p) * alpha, exactly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    av = _as_vector(alpha)
    if len(av) != len(m.alphabet):
        raise ValueError("alpha must live on the same alphabet")

    def block(start: int, length: int) -> np.ndarray:
        return p * m.block(start, length) + (1.0 - p) * av

    return FiniteProductMeasure(m.alphabet, block)


def ri(m: FiniteProductMeasure, p: float, alpha) -> FiniteProductMeasure:
    """Random insertion: the coin that decides "keep or replace" is kept in
    the output, which therefore lives on alphabet x {H, T} with
    mass(n)(a, H) = p * m_n(a) and mass(n)(a, T) = (1-p) * alpha(a)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    av = _as_vector(alpha)
    if len(av) != len(m.alphabet):
        raise ValueError("alpha must live on the same alphabet")
    alphabet = tuple((a, side) for side in ("H", "T") for a in m.alphabet)

    def block(start: int, length: int) -> np.ndarray:
        base = m.block(start, length)
        return np.hstack([p * base, (1.0 - p) * np.tile(av, (length, 1))])

    return FiniteProductMeasure(alphabet, block)


def forget_coin(mri: FiniteProductMeasure) -> FiniteProductMeasure:
    """Marginalize the {H, T} coordinate of a random-insertion measure.

    The result agrees exactly with the corresponding RPM measure, which is
    how the "RPM is a measure-preserving factor of RI" identity is checked.
    """
    half = len(mri.alphabet) // 2
    base_alphabet = tuple(a for a, side in mri.alphabet[:half])

    def block(start: int, length: int) -> np.ndarray:
        full = mri.block(start, length)
        return full[:, :half] + full[:, half:]

    return FiniteProductMeasure(base_alphabet, block)


# ---------------------------------------------------------------------------
# Textual family specs (CLI / config entry point)
# ---------------------------------------------------------------------------

_MEASURE_FAMILIES = {
    "iid": iid_binary,
    "nu_c": make_nu_c,
    "mu": lambda p, c: make_mu_pc(SequenceSpec(p, inverse_sqrt), c),
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
    try:
        args = [float(s) for s in rest.split(",")]
        if not all(math.isfinite(v) for v in args):
            raise ValueError("every number must be finite")
        return _MEASURE_FAMILIES[name](*args)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad measure spec {text!r}: {exc}") from exc
