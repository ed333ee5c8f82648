"""Deterministic, seed-driven sampling of finite windows.

Randomness is counter-based: every coordinate of every labelled stream maps
to a fixed 128-bit Philox counter block, so a window's content depends only
on (root seed, label, coordinate index) and never on the order in which
coordinates are drawn or on how work is split across workers.  Negative
indices are supported by a fixed counter offset.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

_COUNTER_OFFSET = 1 << 62  # room for indices in [-2^62, 2^62)
_BLOCK = 4                 # doubles per Philox counter block
_DENSITY_BLOCK = 1 << 16   # coordinates per block of a uniform or density read


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
        Drawn ``_DENSITY_BLOCK`` coordinates at a time, so only one block's
        four doubles per coordinate are held at once."""
        bg = Philox(key=self._key(label))
        bg.advance(start + _COUNTER_OFFSET)
        gen = Generator(bg)
        u = np.empty((count, 1))
        for c in range(0, count, _DENSITY_BLOCK):
            k = min(_DENSITY_BLOCK, count - c)
            u[c:c + k, 0] = gen.random(k * _BLOCK)[::_BLOCK]
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

    Read in blocks of ``_DENSITY_BLOCK`` coordinates: a coordinate's
    uniform, table row and inverse CDF depend on its index alone, so the
    blocks give the one-shot window and hold one block's temporaries."""
    lo, _ = span
    length = _span_length(span)
    values = np.empty(length)
    for c in range(0, length, _DENSITY_BLOCK):
        k = min(_DENSITY_BLOCK, length - c)
        u = seeds.uniforms(label, lo + c, k)[:, 0]
        values[c:c + k] = _piecewise_inverse_cdf(
            *d.table(np.arange(lo + c, lo + c + k)), u)
    return Window(lo, values)
