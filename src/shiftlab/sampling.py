"""Deterministic, seed-driven sampling of finite windows.

Randomness is counter-based: every coordinate of every labelled stream maps
to a fixed 64-bit word of numpy's Philox (4x64), word j mod 4 of counter
block j // 4 for j the coordinate plus a fixed offset, so a window's content
depends only on (root seed, label, coordinate index) and never on the order
in which coordinates are drawn or on how a request is cut into pieces.  The
offset makes room for negative indices.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

_COUNTER_OFFSET = 1 << 62  # room for indices in [-2^62, 2^62)
_BLOCK = 4                 # 64-bit words per Philox counter block
# Rows (coordinates, block starts, terms, CSV rows) per piece of every
# chunked pass: a marginal block, a uniform or density read, the
# good-block bound and the Kakutani and bias terms each fill one
# preallocated array this many rows at a time, so a piece's temporaries
# stay in cache, and every CSV table is formatted this many rows at a
# time.  The modules read it as ``sampling.BLOCK_ROWS`` at each call.
BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class SeedStream:
    """Root of a family of independent, reproducible substreams.

    Substreams are keyed by a text label; within a labelled stream each
    integer coordinate owns one 64-bit word of the Philox output, four
    coordinates to a counter block.  Identical (root, label, index)
    triples always reproduce identical draws.
    """

    root_seed: int

    def _key(self, label: str) -> np.ndarray:
        payload = (int(self.root_seed) % (1 << 64)).to_bytes(8, "little") \
            + label.encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        return np.frombuffer(digest, dtype=np.uint64)

    def _pieces(self, label: str, start: int, count: int, emit) -> None:
        """Call ``emit(at, u)`` on the uniforms of coordinates
        start .. start+count-1 in ``label``, ``BLOCK_ROWS`` coordinates at
        a time and in order: ``at`` is the slice of offsets from ``start``
        that the piece covers and ``u`` their ``uniforms``, so ``emit``
        sees each coordinate's double once and no array of all of them
        exists."""
        for c in range(0, count, BLOCK_ROWS):
            at = slice(c, min(c + BLOCK_ROWS, count))
            emit(at, self.uniforms(label, start + c, at.stop - c)[:, 0])

    def uniforms(self, label: str, start: int, count: int) -> np.ndarray:
        """Uniform[0,1) draws at coordinates start..start+count-1, one
        64-bit Philox word each, so overlapping requests agree; shape
        (count, 1), as the benchmark's window check reads it.

        Coordinate i reads word j mod 4 of counter block j // 4, where
        j = i + ``_COUNTER_OFFSET``: up to ``BLOCK_ROWS`` coordinates are
        drawn at once from a Philox advanced to the first one's block,
        its first j mod 4 words dropped, and each word converted as
        ``Generator.random`` converts one, (w >> 11) * 2^-53.  A longer
        request is copied in from the pieces of ``_pieces``, which are
        such draws."""
        u = np.empty((count, 1))
        if count > BLOCK_ROWS:
            # each piece is set into its slice: u[at, 0] = piece
            self._pieces(label, start, count, u[:, 0].__setitem__)
            return u
        block, skip = divmod(start + _COUNTER_OFFSET, _BLOCK)
        bg = Philox(key=self._key(label))
        bg.advance(block)
        w = bg.random_raw(skip + count)[skip:]
        np.multiply(np.right_shift(w, 11, out=w), 2.0 ** -53, out=u[:, 0])
        return u

    def generator(self, label: str) -> Generator:
        """A bulk generator for sequential use (rejection loops, MC)."""
        return Generator(Philox(key=self._key(f"{label}#0")))


@dataclass(frozen=True)
class Window:
    """Any finite array anchored at index ``start``: a sample, an {a, b}
    sequence, a blocked window or a marginal block."""

    start: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    @property
    def stop(self) -> int:
        """One past the last index."""
        return self.start + len(self.values)

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.stop - 1)


def _span_length(span: tuple[int, int]) -> int:
    lo, hi = span
    if hi < lo:
        raise ValueError(f"empty index range {span}")
    return hi - lo + 1


def sample_window(m, span: tuple[int, int], seeds: SeedStream,
                  label: str = "window") -> Window:
    """Independent coordinates, coordinate n distributed per marginal(n)."""
    return sample_block(m.block(span[0], _span_length(span)), seeds, label)


def sample_block(block: Window, seeds: SeedStream, label: str) -> Window:
    """The window over every row of a marginal block: coordinate n is the
    inverse CDF of n's row at its uniform in ``label``, as the column index
    0 .. A-1 of its symbol, in the smallest unsigned dtype that holds A-1
    (one byte per site up to 256 symbols).  The symbols are written a
    piece of uniforms at a time, so no float array of the window exists."""
    p = block.values
    sym = np.empty(len(p), dtype=np.min_scalar_type(p.shape[1] - 1))

    def emit(at, u):
        rows, out = p[at], sym[at]
        if p.shape[1] == 2:
            np.greater_equal(u, rows[:, 0], out=out.view(bool))
        else:
            cdf = np.cumsum(rows, axis=1)
            (u[:, None] >= cdf[:, :-1]).sum(axis=1, dtype=sym.dtype, out=out)

    seeds._pieces(label, block.start, len(p), emit)
    return Window(block.start, sym)


def _piecewise_inverse_cdf(edges: np.ndarray, vals: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
    """Exact inverse CDF of piecewise-constant densities (closed form):
    entry i of ``u`` reads row i of the tables, or the one table given."""
    masses = vals * np.diff(edges, axis=-1)
    start = np.zeros(masses.shape[:-1] + (1,))
    cum = np.cumsum(np.concatenate([start, masses], axis=-1), axis=-1)
    total = cum[..., -1:]
    # guard against rounding: u is in [0, total)
    uu = np.minimum(u[..., None] * total, np.nextafter(total, 0.0))
    piece = np.clip((cum <= uu).sum(-1, keepdims=True) - 1,
                    0, vals.shape[-1] - 1)
    v, c, e = (np.take_along_axis(np.broadcast_to(t, u.shape + t.shape[-1:]),
                                  piece, -1) for t in (vals, cum, edges))
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(v > 0, (uu - c) / v, 0.0)
    return (e + offset)[..., 0]


def sample_density_window(d, span: tuple[int, int], seeds: SeedStream,
                          label: str = "density") -> Window:
    """Coordinate n sampled by exact inverse CDF of the density at n.

    Read a piece of uniforms at a time: a coordinate's uniform, table row
    and inverse CDF depend on its index alone, so the pieces give the
    one-shot window and hold one piece's temporaries at once."""
    lo, _ = span
    values = np.empty(_span_length(span))

    def emit(at, u):
        values[at] = _piecewise_inverse_cdf(
            *d.table(np.arange(lo + at.start, lo + at.stop)), u)

    seeds._pieces(label, lo, len(values), emit)
    return Window(lo, values)
