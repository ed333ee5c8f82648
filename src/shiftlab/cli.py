"""Command-line laboratory: deterministic runs, JSON reports, CSV plot data.

Every command echoes its full configuration into the report and derives
all randomness from the --seed flag, so a fixed command line is
byte-reproducible.  Exit codes: 0 all checks passed, 1 a check failed,
2 bad configuration, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import factor as factor_mod
from . import measures, speedups, typeiii
from .sampling import SeedStream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_SEED = 7
CSV_CHUNK = 1 << 16
# The option whose value a command's memory follows, its cap and the bytes
# one unit of it costs at the command's peak (ru_maxrss; measure check with
# any --k set), each cap at ~3.2 GB.  factor run and match run sample a
# window of --n sites (at --n 2e7 factor run holds about 28 bytes a site
# and match run about 37); index scan holds about 415 bytes a k
MAX_SITES = 50_000_000
SITE_BYTES = 64
MAX_MEASURE_N = 25_000_000
MEASURE_N_BYTES = 128
MAX_SAMPLES = 16_000_000
SAMPLE_BYTES = 200
MAX_KMAX = 6_400_000
KMAX_BYTES = 500
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

    Two formatters write the same bytes, picked by the columns' dtypes.
    When every column is an integer array other than ``uint64``,
    ``_write_int_rows`` formats the digits with numpy, ``CSV_CHUNK`` rows
    at a time, so 10^6 rows never hold all their strings at once.  Any
    other column set (floats, strings, bools, ``uint64``; at most a few
    thousand rows in a lab command) is joined row by row."""
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    if all(c.dtype.kind in "iu" and c.dtype != np.uint64 for c in columns):
        with open(path, "wb") as fh:
            _write_int_rows(fh, header, columns)
        return path
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(str, row)) + "\n")
    return path


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


def _write_int_rows(fh, header, columns) -> None:
    """``write_csv`` for integer columns, into the binary file ``fh``.

    Each chunk is a ``(rows, slots)`` matrix of little-endian 4-byte words
    whose NULs are then deleted.  A cell is one lead word (the newline
    that ends the line before it, or the comma after the previous cell,
    then a ``-`` as its last byte when negative) and one word per 4-digit
    group of its column's widest magnitude, read from ``_digit_words``.
    The header's newline is the first row's lead, and one more newline
    ends the file.  Only scalar divisions are used, which numpy does with
    multiply-shift."""
    last, upper = _digit_words()
    n = len(columns[0])
    layout, slots = [], 0                    # (lead slot, groups, signed)
    for c in columns:
        lo, hi = (int(c.min()), int(c.max())) if n else (0, 0)
        groups = 1
        while max(hi, -lo) >= 10 ** (4 * groups):
            groups += 1
        layout.append((slots, groups, lo < 0))
        slots += 1 + groups
    rows = min(n, CSV_CHUNK)
    buf = bytearray(4 * slots * rows)
    words = np.frombuffer(buf, "<u4").reshape(rows, slots)
    leads = [ord("\n")] + [ord(",")] * (len(columns) - 1)
    for (lead, _, _), word in zip(layout, leads):
        words[:, lead] = word
    minus = np.uint32(ord("-") << 24)
    fh.write(",".join(header).encode())
    for i in range(0, n, CSV_CHUNK):
        w = words[:n - i]
        for c, (lead, groups, signed), word in zip(columns, layout, leads):
            c = c[i:i + CSV_CHUNK].astype(np.int64, copy=False)
            if signed:
                w[:, lead] = word + minus * (c < 0)
            q = np.abs(c).view(np.uint64)         # int64 min -> 2^63
            for t in range(groups - 1, 0, -1):
                hi = q // 10_000
                # 10 000 + (q mod 10 000) below a higher digit, else q
                g = np.minimum(q, q - hi * 10_000 + 10_000)
                table = last if t == groups - 1 else upper
                w[:, lead + 1 + t] = table[g.view(np.int64)]
                q = hi
            w[:, lead + 1] = (last if groups == 1 else upper)[
                q.view(np.int64)]
        data = buf if len(w) == rows else buf[:w.nbytes]
        fh.write(data.translate(None, b"\0"))
    fh.write(b"\n")


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
    w, q, d, assignment = factor_mod.match_window(
        m, (0, params["n"] - 1), SeedStream(seed), "match-input")
    if window_csv:
        write_csv(window_csv, ("index", "value"),
                  (np.arange(w.start, w.stop), w.values))
    b, a_indices = assignment.b_indices, assignment.a_indices
    write_csv(assignment_csv, ("b_index", "a_index", "round"),
              (b, a_indices, assignment.rounds))

    # a_indices is a fresh array, so it becomes the radii in place
    a_indices -= b
    hist = np.bincount(a_indices) if len(a_indices) else np.zeros(1, int)
    radii = np.flatnonzero(hist)
    emit_plot_data({"radius_histogram": (radii, hist[radii])}, histogram_csv)
    matched = int(assignment.run_lengths.sum())
    censored = len(assignment.unmatched)
    frac_censored = censored / max(1, matched + censored)
    return [
        {"name": "q", "value": q, "pass": q > 0},
        {"name": "d", "value": d, "pass": True},
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
        np.where(columns["certified"], "dissipative-certified",
                 "not-certified")])
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
