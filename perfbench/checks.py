"""Output checks of the benchmark workloads.

Each check reads the report and artifacts one command wrote and returns a
list of failure messages (empty when the output is correct).  The checks
recompute what they can from first principles with numpy instead of
calling the functions under test.  The one library import is
``SeedStream`` in ``check_match``: it defines the random input a seed
stands for, which the benchmark needs to rebuild the a/b sequence.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

UNIFORMITY_RECORDS = ("frequency", "chi_square_3_blocks", "serial_correlation")
RADIUS_SAMPLE = 200


def _metrics(report: dict) -> dict[str, dict]:
    return {m["name"]: m for m in report["metrics"]}


def _expect_d(m: dict, expect: dict) -> list[str]:
    d = m["d"]["value"]
    return [] if d == expect["d"] else [f"d = {d}, expected {expect['d']}"]


def check_factor(out_dir: Path, report: dict, expect: dict, seed: int):
    """q is the exact good-block probability 2 p0^3 p1^5 of the i.i.d. law,
    d matches, censoring stays under 5% and the uniformity suite passes."""
    m = _metrics(report)
    fails = _expect_d(m, expect)
    q = m["q"]["value"]
    if not math.isclose(q, expect["q"], rel_tol=1e-12):
        fails.append(f"q = {q!r}, expected {expect['q']!r}")
    if not m["censor_fraction"]["value"] < 0.05:
        fails.append(f"censor_fraction = {m['censor_fraction']['value']}")
    for name in UNIFORMITY_RECORDS:
        if not m.get(name, {}).get("pass"):
            fails.append(f"uniformity record {name} missing or failed")
    return fails


def _special_starts(bits: np.ndarray) -> np.ndarray:
    """Mask of special-filler initial indices: length-2 gaps reading 10 or
    01 between consecutive 011 markers."""
    mk = np.flatnonzero((bits[:-2] == 0) & (bits[1:-1] == 1) & (bits[2:] == 1))
    lo = mk[:-1] + 3
    two = mk[1:] - lo == 2
    lo = lo[two]
    isa = np.zeros(len(bits), dtype=bool)
    isa[lo[bits[lo] != bits[lo + 1]]] = True
    return isa


def _nu_c_window(c: float, n: int, seed: int) -> np.ndarray:
    """The window ``match run`` samples: P(0) at index i >= 1 is
    1/2 + c/sqrt(i) while that stays below 1, else 1/2."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from shiftlab.sampling import SeedStream
    u = SeedStream(seed).uniforms("match-input", 0, n)[:, 0]
    i = np.arange(n, dtype=float)
    pert = c / np.sqrt(np.maximum(i, 1.0))
    p0 = 0.5 + np.where((i >= 1) & (pert < 0.5), pert, 0.0)
    return (u >= p0).astype(np.uint8)


def check_match(out_dir: Path, report: dict, expect: dict, seed: int):
    """Rebuild the matching from matching_assignment.csv: every b appears
    once and is a b, every partner is a later a used at most d times, the
    row and censoring counts agree with the report, and for a fixed sample
    of b's the partner lies within the -1/+d walk radius."""
    m = _metrics(report)
    fails = _expect_d(m, expect)
    d = expect["d"]
    rows = np.loadtxt(out_dir / "matching_assignment.csv", delimiter=",",
                      skiprows=1, dtype=np.int64, ndmin=2)
    b, a = rows[:, 0], rows[:, 1]
    if len(b) != m["matched_pairs"]["value"]:
        fails.append(f"{len(b)} rows for {m['matched_pairs']['value']} pairs")
    if len(np.unique(b)) != len(b):
        fails.append("a b appears more than once")
    if not np.all(a > b):
        fails.append("a partner a precedes its b")
    if len(a) and np.bincount(a).max() > d:
        fails.append("an a is used more than d times")

    isa = _special_starts(_nu_c_window(expect["c"], expect["n"], seed))
    if np.any(isa[b]) or not np.all(isa[a]):
        fails.append("a row's b or a disagrees with the window's specials")
    n_b = int((~isa).sum())
    censored = (n_b - len(b)) / n_b
    if not math.isclose(censored, m["censored_b_fraction"]["value"],
                        rel_tol=1e-12, abs_tol=1e-15):
        fails.append(f"censored_b_fraction {m['censored_b_fraction']['value']}"
                     f" != {censored} from the window")

    walk = np.cumsum(np.where(isa, d, -1))
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(b), size=min(RADIUS_SAMPLE, len(b)), replace=False):
        base = walk[b[i] - 1] if b[i] > 0 else 0
        if np.any(walk[b[i] + 1:a[i]] >= base):
            fails.append(f"b {b[i]} is matched beyond its walk radius")
            break
    return fails


def _mu_p0(p: float, c: float, idx: np.ndarray) -> np.ndarray:
    """P(0) of mu(p, c): p + c/sqrt(i) for i >= 1, else p; clamped to p
    outside (0, 1)."""
    idx = idx.astype(float)
    raw = p + c * np.where(idx >= 1, 1.0 / np.sqrt(np.maximum(idx, 1.0)), 0.0)
    return np.where((raw > 0.0) & (raw < 1.0), raw, p)


def _kakutani(p: float, c: float, k: int, N: int) -> float:
    idx = np.arange(-N, N + 1)
    return float(np.sum((_mu_p0(p, c, idx) - _mu_p0(p, c, idx - k)) ** 2))


def check_measure(out_dir: Path, report: dict, expect: dict, seed: int):
    """Each Kakutani shift sum and its last-decade increment match the
    numpy oracle within 1e-9 relative."""
    p, c, N = expect["p"], expect["c"], expect["n"]
    fails = []
    sums = [r for r in report["metrics"]
            if r["name"].startswith("kakutani_shift_sum_k")]
    if not sums:
        fails.append("no kakutani_shift_sum records")
    for rec in sums:
        k = int(rec["name"].rsplit("k", 1)[1])
        value = _kakutani(p, c, k, N)
        tail = value - _kakutani(p, c, k, max(N // 10, 1))
        if not (math.isclose(rec["value"], value, rel_tol=1e-9)
                and math.isclose(rec["tail_increment"], tail, rel_tol=1e-9,
                                 abs_tol=1e-9 * value)):
            fails.append(f"{rec['name']} = {rec['value']!r}, oracle {value!r}")
    return fails


def check_typeiii(out_dir: Path, report: dict, expect: dict, seed: int):
    """Every sampled log-ratio sits on the log(lambda') lattice and some
    ratios were sampled."""
    m = _metrics(report)
    fails = []
    if not m["lattice_deviation"]["value"] <= 1e-9:
        fails.append(f"lattice_deviation = {m['lattice_deviation']['value']}")
    if not 0 < m["sampled_ratios"]["value"] <= expect["samples"]:
        fails.append(f"sampled_ratios = {m['sampled_ratios']['value']}")
    return fails
