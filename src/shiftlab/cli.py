"""Command-line laboratory: deterministic runs, JSON reports, CSV plot data.

Every command echoes its full configuration into the report and derives
all randomness from the --seed flag, so a fixed command line is
byte-reproducible.  Exit codes: 0 all checks passed, 1 a check failed,
2 bad configuration, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import factor as factor_mod
from . import measures, sampling, speedups, typeiii
from .sampling import SeedStream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_SEED = 7
# The option whose value a command's memory follows, its cap and the bytes
# one unit of it costs at the command's peak (ru_maxrss; measure check with
# any --k set), each cap at ~3.2 GB.  factor run and match run sample a
# window of --n sites, whatever the capacity d: on iid:0.3, whose marginal
# block is one row, factor run holds about 11.5 bytes a site at --n 2e7
# and match run, which holds no per-b column, about 6; on mu:0.3,0.5 at
# --n 1e7 both hold about 21, 16 of them the marginal block's.  measure
# check holds about 50 a unit of n; index scan about 48 a k at its cap
MAX_SITES = 50_000_000
SITE_BYTES = 64
MAX_MEASURE_N = 25_000_000
MEASURE_N_BYTES = 128
MAX_SAMPLES = 16_000_000
SAMPLE_BYTES = 200
MAX_KMAX = 6_400_000
KMAX_BYTES = 500
# glibc's allocator policy, set by ``main`` before it parses argv.  The
# chunked loops allocate a few MB of numpy temporaries a piece and free
# them.  glibc's dynamic thresholds (twice the largest mmapped chunk freed
# so far) then hand the heap top back to the kernel, and the next piece
# faults the same pages in again.  Fixed thresholds keep them: in fresh
# processes the main phase of match run on nu_c:0.1 at --n 1e6 faulted
# 9.5k pages, and 0.8k under this policy; measure check on mu:0.3,0.5,
# 23.4k and 1.3k.  The thresholds, as measured:
# - chunks from 16 MiB up are still mmapped, so a large window's arrays
#   go back whole when freed.  At 32 MiB, factor run on iid:0.3 at --n 2e7
#   peaked at 241 MiB against 218 (heap fragmentation of its 20 MB
#   arrays); at 1 MiB, typeiii ratios' repeated arrays just above 1 MiB
#   were mmapped on every allocation and its main phase ran 14.4 -> 16.9
#   ms; at 8 MiB, factor run at --n 2e6 peaked 4 MiB higher;
# - a free heap top is trimmed past 32 MiB: at 64 MiB that factor run at
#   --n 2e7 peaked at 225 MiB, above the dynamic policy's 222.
MMAP_THRESHOLD = 16 << 20
TRIM_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3    # mallopt's parameters


def _set_malloc_policy() -> None:
    """Fix glibc's mmap and trim thresholds; does nothing where the C
    library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_CAPS = {   # command: (option, cap, bytes a unit, what holds them, unit)
    "factor": ("n", MAX_SITES, SITE_BYTES, "a window", "a site"),
    "match": ("n", MAX_SITES, SITE_BYTES, "a window", "a site"),
    "measure": ("n", MAX_MEASURE_N, MEASURE_N_BYTES, "measure check",
                "a unit of n"),
    "typeiii": ("samples", MAX_SAMPLES, SAMPLE_BYTES, "typeiii ratios",
                "a sample"),
    "index": ("kmax", MAX_KMAX, KMAX_BYTES, "index scan", "a k"),
}


def write_csv(path: Path, header, columns) -> Path:
    """Write the ``header`` line, then one row per position of the
    equal-length ``columns``, each line ending in a bare newline.  A cell
    is the ``str`` of a ``.tolist()`` value, which is a float's ``repr``.
    The columns go to ``_write_rows`` ``BLOCK_ROWS`` rows at a time."""
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    rows = sampling.BLOCK_ROWS
    _write_rows(path, header, ([c[i:i + rows] for c in columns]
                               for i in range(0, len(columns[0]), rows)))
    return path


def _write_rows(path: Path, header, chunks) -> None:
    """The one CSV file loop: the ``header`` line, then the rows of each
    chunk that ``chunks`` yields, a list of equal-length columns, so no
    column need exist whole.  Two formatters write the same bytes, picked
    by each chunk's dtypes: ``_int_rows`` when every column is an integer
    array other than ``uint64``, else ``_joined_rows``.  Each row begins
    with the newline that ends the line before it, and one more newline
    ends the file."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for chunk in chunks:
            ints = all(c.dtype.kind in "iu" and c.dtype != np.uint64
                       for c in chunk)
            (_int_rows if ints else _joined_rows)(fh, chunk)
        fh.write(b"\n")


def _joined_rows(fh, chunk) -> None:
    """Write the rows of ``chunk`` joined cell by cell from ``.tolist()``,
    one row at a time."""
    fh.writelines(("\n" + ",".join(map(str, row))).encode()
                  for row in zip(*(c.tolist() for c in chunk)))


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit group words, built on first use so no import pays for
    them.  Index g < 10 000 holds the top group g of a number, NUL-padded
    on the left (``"\\0\\0" "42"``); index 10 000 + g holds a group below
    the top, zero-padded (``"0042"``).  The two tables differ only at
    index 0: ``"0"`` in the first, for the last group of the value 0, and
    all NULs in the second, for a group above a number's top."""
    g = np.arange(10_000)
    digits = [(g // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
              for k in range(4)]                       # byte k of "%04d"
    padded = sum(digits)
    bare = digits[3] + sum(np.where(g >= 10 ** (3 - k), digits[k], 0)
                           for k in range(3))
    last = np.concatenate([bare, padded]).astype("<u4")
    upper = last.copy()
    upper[0] = 0
    last.flags.writeable = upper.flags.writeable = False    # shared
    return last, upper


def _int_rows(fh, chunk) -> None:
    """Write the rows of ``chunk``, integer columns, formatted with numpy.

    The rows are a ``(rows, width)`` byte matrix whose NULs are then
    deleted.  A cell is one lead byte (the newline that ends the line
    before it, or the comma after the previous cell), then a ``-`` byte or
    a NUL if its column holds a negative value in this chunk, then one
    little-endian 4-byte word per 4-digit group of the chunk's widest
    magnitude in its column, read from ``_digit_words`` and written
    through a view at the word's unaligned offset.  A narrower number's
    unused words are NULs, so the bytes do not depend on where the chunks
    are cut.  Magnitudes below 2^32 are split in ``uint32``; only scalar
    divisions are used, which numpy does with multiply-shift."""
    last, upper = _digit_words()
    columns = [c.astype(np.int64, copy=False) for c in chunk]
    rows = len(columns[0])
    layout, width = [], 0            # (lead offset, groups, signed, most)
    for c in columns:
        lo, hi = int(c.min()), int(c.max())
        most, groups = max(hi, -lo), 1
        while most >= 10 ** (4 * groups):
            groups += 1
        layout.append((width, groups, lo < 0, most))
        width += 1 + (lo < 0) + 4 * groups
    buf = bytearray(width * rows)
    cells = np.frombuffer(buf, np.uint8).reshape(rows, width)
    for i, (c, (lead, groups, signed, most)) in enumerate(zip(columns,
                                                              layout)):
        cells[:, lead] = ord(",") if i else ord("\n")
        if signed:
            cells[:, lead + 1] = (c < 0).view(np.uint8) * np.uint8(ord("-"))
        q = (np.abs(c) if signed else c).view(np.uint64)  # min -> 2^63
        if most < 2 ** 32:
            q = q.astype(np.uint32)
        # the cell's group words, as unaligned views with the row stride
        first = lead + 1 + signed
        words = [np.ndarray(rows, "<u4", buf, at, (width,))
                 for at in range(first, first + 4 * groups, 4)]
        # np.take, unlike fancy indexing, reads a uint32 index without a
        # slow cast
        for t in range(groups - 1, 0, -1):
            hi = q // 10_000
            # 10 000 + (q mod 10 000) below a higher digit, else q
            g = np.minimum(q, q - hi * 10_000 + 10_000)
            words[t][:] = np.take(last if t == groups - 1 else upper, g)
            q = hi
        words[0][:] = np.take(last if groups == 1 else upper, q)
    fh.write(buf.translate(None, b"\0"))


def emit_plot_data(series: dict, path: Path) -> Path:
    """Write named series ``{name: (x, y)}`` of equal-length arrays as CSV
    with header ``series,x,y``, x and y as floats, the names in order."""
    names = sorted(series)
    x, y = ([np.asarray(series[name][i]) for name in names] for i in (0, 1))
    return write_csv(path, ("series", "x", "y"), (
        np.repeat(names, [len(v) for v in x]),
        np.concatenate([[], *x]), np.concatenate([[], *y])))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _tail_metric(name: str, terms: np.ndarray) -> dict:
    """A truncated sum's record: passes when its last-decade tail is small."""
    value, tail = measures.sum_with_tail(terms)
    return {"name": name, "value": value, "tail_increment": tail,
            "pass": abs(tail) <= max(1e-4 * value, 1e-15)}


# Each command takes the parsed params, the seed and the paths of the CSV
# files its ``_COMMANDS`` entry names, then of the --dump-window file if
# one is asked for, and returns its metrics; ``main`` writes and prints
# the report.

def _cmd_measure(params: dict, seed: int, csv: Path):
    m = measures.parse_measure(params["measure"])
    n = params["n"]
    # one block over the rows the default lags 1, 2, 4, 8 and the last
    # bias bond n + 1 read; kakutani_terms reads any other lag from m in
    # chunks, so memory follows n whatever --k says
    block = m.block(-n - 8, 2 * n + 10)
    metrics = []
    delta = measures.doeblin_delta(measures.block_rows(block, -n, n))
    metrics.append({"name": "doeblin_delta", "value": delta,
                    "pass": delta > 0.0})
    decades = 10 ** np.arange(1, int(math.log10(n)) + 1)
    series = {}
    for k in dict.fromkeys(params.get("ks") or [1, 2, 4, 8]):
        terms = measures.kakutani_terms(block, k, n, m)
        metrics.append(_tail_metric(f"kakutani_shift_sum_k{k}", terms))
        series[f"kakutani_k{k}"] = (decades, np.array(
            [measures.centred_sum(terms, dn) for dn in decades.tolist()]))
        del terms   # one term array at a time
    metrics.append(_tail_metric("bias_square_sum",
                                factor_mod.bias_square_terms(block, n)))
    emit_plot_data(series, csv)
    return metrics


def _cmd_factor(params: dict, seed: int):
    m = measures.parse_measure(params["measure"])
    _, diag = factor_mod.run_iid_factor(m, (0, params["n"] - 1),
                                        SeedStream(seed),
                                        radius=params["radius"])
    metrics = [
        {"name": "q", "value": diag["q"], "pass": diag["q"] > 0},
        {"name": "d", "value": diag["d"], "pass": True},
        {"name": "beta0", "value": diag["beta0"], "pass": True},
        {"name": "censor_fraction", "value": diag["censor_fraction"],
         "tolerance": 0.05, "pass": diag["censor_fraction"] < 0.05},
    ]
    return metrics + diag["tests"]


def _cmd_match(params: dict, seed: int, assignment_csv: Path,
               histogram_csv: Path, window_csv: Path | None = None):
    m = measures.parse_measure(params["measure"])
    w, q, assignment = factor_mod.match_window(
        m, (0, params["n"] - 1), SeedStream(seed), "match-input")
    rows = sampling.BLOCK_ROWS
    if window_csv:
        n = len(w)
        _write_rows(window_csv, ("index", "value"), (
            (np.arange(w.start + i, w.start + min(i + rows, n)),
             w.values[i:i + rows]) for i in range(0, n, rows)))
    _write_rows(assignment_csv, ("b_index", "a_index", "round"),
                ((c.b_indices, c.a_indices, c.rounds)
                 for c in assignment.row_chunks(rows)))
    lens = assignment.run_lengths
    matched = int(lens.sum())
    # the run of L b's from s matched to the a at A covers the radii
    # A-s-L+1 .. A-s: the histogram steps up at the first and down past the
    # last
    far = assignment.a_positions[assignment.run_ranks] - assignment.run_starts
    down = np.bincount(far + 1, minlength=1)
    hist = np.cumsum(np.bincount(far - lens + 1, minlength=len(down)) - down)
    radii = np.flatnonzero(hist)
    emit_plot_data({"radius_histogram": (radii, hist[radii])}, histogram_csv)
    censored = len(assignment.unmatched)
    frac_censored = censored / max(1, matched + censored)
    return [
        {"name": "q", "value": q, "pass": q > 0},
        {"name": "d", "value": assignment.d, "pass": True},
        {"name": "matched_pairs", "value": matched, "pass": True},
        {"name": "censored_b_fraction", "value": frac_censored,
         "tolerance": 0.25, "pass": frac_censored < 0.25},
    ]


def _cmd_typeiii(params: dict, seed: int, csv: Path):
    n_max, samples = params["n"], params["samples"]
    hspec = typeiii.HMapSpec(params["lam"], params["lam_prime"])
    # n uniform below --n, v uniform on a uniformly chosen support piece
    rng = SeedStream(seed).generator("typeiii-ratios")
    ns = rng.integers(0, n_max, samples)
    pieces = np.array(hspec.support_pieces())
    vs = rng.uniform(*pieces[rng.integers(0, len(pieces), samples)].T)
    ratios = typeiii.ratio_profile(hspec, ns, vs)
    distinct, counts = np.unique(ratios[~np.isnan(ratios)],
                                 return_counts=True)
    logs = [math.log(r) for r in distinct.tolist()]
    log_lp = math.log(hspec.lam_prime)
    worst = max((abs(lr - round(lr / log_lp) * log_lp) for lr in logs),
                default=0.0)
    hist, edges = np.histogram(np.repeat(logs, counts), bins=41)
    centers = 0.5 * (edges[:-1] + edges[1:])
    emit_plot_data({"log_rn_histogram": (centers, hist)}, csv)
    return [
        {"name": "lattice_deviation", "value": worst, "tolerance": 1e-9,
         "pass": worst <= 1e-9},
        {"name": "sampled_ratios", "value": int(counts.sum()), "pass": True},
    ]


def _cmd_index(params: dict, seed: int, csv: Path):
    columns, implied = speedups.index_report(params["c"], params["kmax"])
    header = ("k", "exponent", "S", "partial_dissip", "tail_slope")
    write_csv(csv, header + ("classification",), [
        *(columns[h] for h in header),
        np.array(["not-certified", "dissipative-certified"],
                 dtype=object)[columns["certified"].view(np.int8)]])
    return [
        {"name": "implied_index", "value": implied, "pass": True},
        {"name": "kmax", "value": params["kmax"], "pass": True},
    ]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Each command, written once: its sub-command word, its function, the CSV
# files it always writes under the out-dir and its options as (flag,
# add_argument keywords) pairs, which _COMMON follows.
_COMMANDS = {
    "measure": ("check", _cmd_measure, ("measure_check.csv",), (
        ("--measure", dict(required=True,
                           help="compact spec, e.g. iid:0.3")),
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, action="append", dest="ks")))),
    "factor": ("run", _cmd_factor, (), (
        ("--measure", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--radius", dict(type=int, default=factor_mod.DEFAULT_RADIUS,
                          help="fair-bit half-window of the split code")))),
    "match": ("run", _cmd_match,
              ("matching_assignment.csv", "radius_histogram.csv"), (
        ("--measure", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--dump-window", dict(
            help="also export the sampled window as index,value CSV")))),
    "typeiii": ("ratios", _cmd_typeiii, ("typeiii_log_rn.csv",), (
        ("--lambda", dict(dest="lam", type=float, required=True)),
        ("--lambda-prime", dict(dest="lam_prime", type=float,
                                required=True)),
        ("--n", dict(type=int, default=40)),
        ("--samples", dict(type=int, default=10000)))),
    "index": ("scan", _cmd_index, ("index_scan.csv",), (
        ("--c", dict(type=float, required=True)),
        ("--kmax", dict(type=int, required=True)))),
}
_COMMON = (
    ("--seed", dict(type=int, default=DEFAULT_SEED)),
    ("--out-dir", dict(type=Path)),
    ("--out", dict(type=Path,
                   help="report path (default <out-dir>/<cmd>_report.json)")),
)


def _read_config_file(argv: list[str] | None) -> dict:
    """The JSON object named by --config, or {}; read before the full
    parse so that it can supply required options."""
    pre = argparse.ArgumentParser(prog="shiftlab", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config", type=Path)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    values = json.loads(path.read_text())
    if not isinstance(values, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return values


def _build_parser(file_values: dict) -> argparse.ArgumentParser:
    """The CLI parser, where ``file_values`` replace built-in defaults and
    satisfy required options: flag > config file > default.  A file value
    must be the text of a flag: one string or number (a JSON value reads
    as exactly str, int or float), or a list of them for an append option;
    never a boolean, null or nested value."""
    ap = argparse.ArgumentParser(
        prog="shiftlab", allow_abbrev=False,
        description="nonsingular Bernoulli shift laboratory")
    ap.add_argument("--config", type=Path,
                    help="JSON file of option values; flags override")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (word, _, _, options) in _COMMANDS.items():
        p = sub.add_parser(command).add_subparsers(
            dest="sub", required=True).add_parser(word)
        for flag, keywords in options + _COMMON:
            action = p.add_argument(flag, **keywords)
            if action.dest not in file_values:
                continue
            value = file_values[action.dest]
            appends = keywords.get("action") == "append"
            items = value if appends else [value]
            if not (isinstance(items, list)
                    and all(type(v) in (str, int, float) for v in items)):
                shape = ("a list of strings or numbers" if appends
                         else "a string or a number")
                raise ValueError(f"config value {json.dumps(value)} for "
                                 f"{flag}: expected {shape}")
            action.required = False
            # argparse converts a string default through the option's
            # type, as it does a flag's text.  An append option would add
            # its flags to a list default; _config_from_args fills it from
            # the file instead
            if not appends:
                action.default = str(value)
    return ap


def _config_from_args(args: argparse.Namespace, file_values: dict):
    """(command, params, seed, out_dir, paths) of a parsed command line,
    where ``paths`` are the files the command writes, then the report.
    Every option bound is checked here, and the output directories are
    created, so a bad value, two outputs at one path, an output that is an
    existing directory or a path that cannot be one is refused before any
    work runs."""
    options = set(vars(args)) - {"command", "sub", "config"}
    unknown = sorted(set(file_values) - options)
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} for "
                         f"{args.command} {args.sub}")
    params = {k: getattr(args, k) for k in options - {"seed", "out_dir"}
              if getattr(args, k) is not None}
    # the append option --k takes no default from the file (a key of
    # another command was refused above): fill it here
    if "ks" in file_values and "ks" not in params:
        try:
            params["ks"] = [int(str(v)) for v in file_values["ks"]]
        except ValueError:
            raise ValueError(f"config value {json.dumps(file_values['ks'])} "
                             f"for --k: invalid int value") from None
    for key, least in (("n", 1), ("samples", 1), ("kmax", 1), ("radius", 0)):
        if params.get(key, least) < least:
            sign = "positive" if least else "non-negative"
            raise ValueError(f"--{key} must be a {sign} integer")
    if args.command in _CAPS:
        key, cap, cost, holder, unit = _CAPS[args.command]
        if params[key] > cap:
            raise ValueError(
                f"--{key} must be at most {cap}: {holder} holds up to "
                f"~{cost} bytes {unit}, ~{cap * cost / 1e9:.1f} GB at that "
                "cap")
    # typeiii ratios draws its indices below --n as int64
    if params.get("n", 1) > 2**63 - 1:
        raise ValueError(f"--n must be at most {2**63 - 1}")
    # measure check reads the marginals at -n - k .. n - k for every --k:
    # with n at most its cap and |k| below 2^61 those indices fit in int64
    most = 2**61 - 1
    if any(abs(k) > most for k in params.get("ks", ())):
        raise ValueError(f"--k must lie in {-most} .. {most}")
    out_dir = args.out_dir or Path(os.environ.get("SHIFTLAB_OUT", "."))
    # the files the run writes, in order; --out is read from the working
    # directory, the others from out_dir
    named = [("artifact", out_dir / name)
             for name in _COMMANDS[args.command][2]]
    if params.get("dump_window"):
        named.append(("--dump-window", out_dir / params["dump_window"]))
    named.append(("--out", params["out"]) if params.get("out") else
                 ("report", out_dir / f"{args.command}_report.json"))
    seen = {}
    for role, path in named:
        if path.is_dir():
            raise ValueError(f"{role} {path} is a directory")
        first = seen.setdefault(path.resolve(), f"{role} {path}")
        if first != f"{role} {path}":
            raise ValueError(f"{first} and {role} {path} are one file")
    for path in dict.fromkeys([out_dir] + [p.parent for _, p in named]):
        path.mkdir(parents=True, exist_ok=True)
    return (args.command, params, args.seed, out_dir,
            [path for _, path in named])


def main(argv: list[str] | None = None) -> int:
    _set_malloc_policy()
    try:
        file_values = _read_config_file(argv)
        args = _build_parser(file_values).parse_args(argv)
        command, params, seed, out_dir, paths = _config_from_args(
            args, file_values)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"shiftlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        *artifacts, path = paths
        metrics = _COMMANDS[command][1](params, seed, *artifacts)
        config = {"command": command, "seed": seed, "out_dir": str(out_dir),
                  "params": {k: str(v) if isinstance(v, Path) else v
                             for k, v in params.items()}}
        report = {"version": __version__, "config": config,
                  "metrics": metrics, "artifacts": list(map(str, artifacts))}
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    except (ValueError, KeyError) as exc:
        print(f"shiftlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001  (distinct exit code contract)
        print(f"shiftlab: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    report["artifacts"].append(str(path))
    print(json.dumps(report, sort_keys=True, indent=2))
    passed = all(m.get("pass", True) for m in metrics)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
