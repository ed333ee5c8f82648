"""Deterministic, seed-driven sampling of finite windows.

Randomness is counter-based: every coordinate of every labelled stream maps
to a fixed 128-bit Philox counter block, so a window's content depends only
on (root seed, label, coordinate index) and never on the order in which
coordinates are drawn or on how work is split across workers.  Negative
indices are supported by a fixed counter offset.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from threading import Thread

import numpy as np
from numpy.random import Generator, Philox

_COUNTER_OFFSET = 1 << 62  # room for indices in [-2^62, 2^62)
_BLOCK = 4                 # 64-bit words per Philox counter block
# Rows (coordinates, block starts, terms) per piece of every chunked fill:
# a marginal block, a uniform or density read, the good-block bound and the
# Kakutani and bias terms each fill one preallocated array this many rows
# at a time, so a piece's temporaries stay in cache.  The modules read it
# as ``sampling.BLOCK_ROWS`` at each call.
BLOCK_ROWS = 1 << 15


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw(key: np.ndarray, start: int, u: np.ndarray, step: int,
          errors: list) -> None:
    """Fill ``u`` with the uniforms of coordinates start, start+1, ...,
    drawn ``step`` coordinates at a time: word 0 of each one's counter
    block, converted as ``Generator.random`` converts a word,
    (w >> 11) * 2^-53, and the other three words never converted.  An
    exception goes to ``errors``, for the caller to raise once every share
    is done."""
    try:
        bg = Philox(key=key)
        bg.advance(start + _COUNTER_OFFSET)
        for c in range(0, len(u), step):
            k = min(step, len(u) - c)
            w = bg.random_raw(k * _BLOCK)[::_BLOCK]
            np.multiply(np.right_shift(w, 11, out=w), 2.0 ** -53,
                        out=u[c:c + k])
    except BaseException as e:
        errors.append(e)


@dataclass(frozen=True)
class SeedStream:
    """Root of a family of independent, reproducible substreams.

    Substreams are keyed by a text label; within a labelled stream each
    integer coordinate owns one counter block.  Identical (root, label,
    index) triples always reproduce identical draws.
    """

    root_seed: int

    def _key(self, label: str) -> np.ndarray:
        payload = (int(self.root_seed) % (1 << 64)).to_bytes(8, "little") \
            + label.encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        return np.frombuffer(digest, dtype=np.uint64)

    def uniforms(self, label: str, start: int, count: int) -> np.ndarray:
        """Uniform[0,1) draws at coordinates start..start+count-1, the first
        double of each one's own counter block, so overlapping requests
        agree; shape (count, 1), as the benchmark's window check reads it.

        A request longer than ``BLOCK_ROWS`` coordinates is split into
        W = min(CPUs, ceil(count / BLOCK_ROWS)) contiguous shares.  The
        calling thread draws the first share and one thread each the rest;
        each builds its own Philox at its share's first counter and writes
        its own slice, so a coordinate's double and the bytes of ``u`` do
        not depend on W.  Each share is drawn ``BLOCK_ROWS // W``
        coordinates at a time, so one piece's four words per coordinate
        are held at once, whatever W is.  numpy's
        ``Philox.random_raw`` releases the GIL, so the shares run in
        parallel."""
        key = self._key(label)
        u = np.empty((count, 1))
        workers = 1
        if count > BLOCK_ROWS:
            workers = min(_cpu_count(), -(-count // BLOCK_ROWS))
        step = BLOCK_ROWS // workers
        cuts = [count * i // workers for i in range(workers + 1)]
        errors = []
        threads = []
        try:
            for i in range(1, workers):
                thread = Thread(target=_draw, args=(
                    key, start + cuts[i], u[cuts[i]:cuts[i + 1], 0], step,
                    errors))
                thread.start()
                threads.append(thread)
            _draw(key, start, u[:cuts[1], 0], step, errors)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
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
    (one byte per site up to 256 symbols)."""
    p = block.values
    u = seeds.uniforms(label, block.start, len(p))[:, 0]
    if p.shape[1] == 2:
        sym = (u >= p[:, 0]).view(np.uint8)
    else:
        cdf = np.cumsum(p, axis=1)
        sym = (u[:, None] >= cdf[:, :-1]).sum(
            axis=1, dtype=np.min_scalar_type(p.shape[1] - 1))
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

    Read ``BLOCK_ROWS`` coordinates at a time: a coordinate's uniform,
    table row and inverse CDF depend on its index alone, so the pieces
    give the one-shot window and hold one piece's temporaries."""
    lo, _ = span
    length = _span_length(span)
    values = np.empty(length)
    for c in range(0, length, BLOCK_ROWS):
        k = min(BLOCK_ROWS, length - c)
        u = seeds.uniforms(label, lo + c, k)[:, 0]
        values[c:c + k] = _piecewise_inverse_cdf(
            *d.table(np.arange(lo + c, lo + c + k)), u)
    return Window(lo, values)
