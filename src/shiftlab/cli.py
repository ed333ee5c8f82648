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


def emit_plot_data(series: dict[str, list[tuple[float, float]]],
                   path: Path) -> Path:
    """Write named (x, y) series as CSV with header ``series,x,y``."""
    names = sorted(series)
    return write_csv(path, ("series", "x", "y"), (
        [name for name in names for _ in series[name]],
        [float(x) for name in names for x, _ in series[name]],
        [float(y) for name in names for _, y in series[name]]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _tail_metric(name: str, terms: np.ndarray) -> dict:
    """A truncated sum's record: passes when its last-decade tail is small."""
    value, tail = measures.sum_with_tail(terms)
    return {"name": name, "value": value, "tail_increment": tail,
            "pass": abs(tail) <= max(1e-4 * value, 1e-15)}


# Each command takes the parsed (params, seed, out_dir) and returns its
# (metrics, artifacts); ``main`` writes and prints the report.

def _cmd_measure(params: dict, seed: int, out_dir: Path):
    m = measures.parse_measure(params["measure"])
    n = params["n"]
    ks = list(dict.fromkeys(params.get("ks") or [1, 2, 4, 8]))
    # one block over the Kakutani lags n - k and the last bias bond n + 1
    lo, hi = -n - max(0, max(ks)), n + max(1, -min(ks))
    block = m.block(lo, hi - lo + 1)
    metrics = []
    delta = measures.doeblin_delta(measures.block_rows(block, -n, n))
    metrics.append({"name": "doeblin_delta", "value": delta,
                    "pass": delta > 0.0})
    decades = [10 ** e for e in range(1, int(math.log10(n)) + 1)]
    series = {}
    for k in ks:
        terms = measures.kakutani_terms(block, k, n)
        metrics.append(_tail_metric(f"kakutani_shift_sum_k{k}", terms))
        series[f"kakutani_k{k}"] = [
            (dn, measures.centred_sum(terms, dn)) for dn in decades]
    metrics.append(_tail_metric("bias_square_sum",
                                factor_mod.bias_square_terms(block, n)))
    return metrics, [emit_plot_data(series, out_dir / "measure_check.csv")]


def _cmd_factor(params: dict, seed: int, out_dir: Path):
    m = measures.parse_measure(params["measure"])
    result = factor_mod.run_iid_factor(m, (0, params["n"] - 1),
                                       SeedStream(seed),
                                       radius=params["radius"])
    diag = result.diagnostics
    metrics = [
        {"name": "q", "value": diag["q"], "pass": diag["q"] > 0},
        {"name": "d", "value": diag["d"], "pass": True},
        {"name": "beta0", "value": diag["beta0"], "pass": True},
        {"name": "censor_fraction", "value": diag["censor_fraction"],
         "tolerance": 0.05, "pass": diag["censor_fraction"] < 0.05},
    ]
    return metrics + diag["tests"], []


def _cmd_match(params: dict, seed: int, out_dir: Path):
    m = measures.parse_measure(params["measure"])
    w, q, d, assignment = factor_mod.match_window(
        m, (0, params["n"] - 1), SeedStream(seed), "match-input")
    artifacts = []
    if params.get("dump_window"):
        artifacts.append(write_csv(
            out_dir / params["dump_window"], ("index", "value"),
            (np.arange(w.start, w.stop), w.values)))
    a_indices = assignment.a_indices
    out_rows = write_csv(
        out_dir / "matching_assignment.csv",
        ("b_index", "a_index", "round"),
        (assignment.b_indices, a_indices, assignment.rounds))

    # a_indices is a fresh array, so it becomes the radii in place
    a_indices -= assignment.b_indices
    hist = np.bincount(a_indices) if len(a_indices) else np.zeros(1, int)
    art2 = emit_plot_data(
        {"radius_histogram": [(k, int(c)) for k, c in enumerate(hist) if c]},
        out_dir / "radius_histogram.csv")
    n_b = len(assignment.b_indices) + len(assignment.unmatched)
    frac_censored = len(assignment.unmatched) / max(1, n_b)
    metrics = [
        {"name": "q", "value": q, "pass": q > 0},
        {"name": "d", "value": d, "pass": True},
        {"name": "matched_pairs", "value": int(len(assignment.b_indices)),
         "pass": True},
        {"name": "censored_b_fraction", "value": frac_censored,
         "tolerance": 0.25, "pass": frac_censored < 0.25},
    ]
    return metrics, [out_rows, art2, *artifacts]


def _cmd_typeiii(params: dict, seed: int, out_dir: Path):
    n_max, samples = params["n"], params["samples"]
    if n_max >= 2**63:
        raise ValueError(f"--n must be at most {2**63 - 1}")
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
    art = emit_plot_data(
        {"log_rn_histogram": list(zip(centers.tolist(), hist.tolist()))},
        out_dir / "typeiii_log_rn.csv")
    metrics = [
        {"name": "lattice_deviation", "value": worst, "tolerance": 1e-9,
         "pass": worst <= 1e-9},
        {"name": "sampled_ratios", "value": int(counts.sum()), "pass": True},
    ]
    return metrics, [art]


def _cmd_index(params: dict, seed: int, out_dir: Path):
    rep = speedups.index_report(params["c"], params["kmax"])
    rows = [(r.k, r.exponent, r.hellinger, r.dissipativity_partial,
             r.tail_slope, "dissipative-certified" if r.certified
             else "not-certified") for r in rep.rows]
    rows_path = write_csv(out_dir / "index_scan.csv", (
        "k", "exponent", "S", "partial_dissip", "tail_slope",
        "classification"), list(zip(*rows)))
    metrics = [
        {"name": "implied_index", "value": rep.implied_index, "pass": True},
        {"name": "kmax", "value": params["kmax"], "pass": True},
    ]
    return metrics, [rows_path]


_COMMANDS = {
    "measure": _cmd_measure,
    "factor": _cmd_factor,
    "match": _cmd_match,
    "typeiii": _cmd_typeiii,
    "index": _cmd_index,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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


def _check_file_value(action: argparse.Action, value) -> None:
    """Refuse a config-file value that is not the text of a flag: one
    string or number, or a list of them for an append option; never a
    boolean, null or nested value."""
    def scalar(v):
        return isinstance(v, (str, int, float)) and not isinstance(v, bool)
    if isinstance(action, argparse._AppendAction):
        ok, shape = isinstance(value, list) and all(map(scalar, value)), \
            "a list of strings or numbers"
    else:
        ok, shape = scalar(value), "a string or a number"
    if not ok:
        raise ValueError(f"config value {json.dumps(value)} for "
                         f"{action.option_strings[0]}: expected {shape}")


def _build_parser(file_values: dict) -> argparse.ArgumentParser:
    """The CLI parser, where ``file_values`` replace built-in defaults and
    satisfy required options: flag > config file > default."""
    ap = argparse.ArgumentParser(
        prog="shiftlab", allow_abbrev=False,
        description="nonsingular Bernoulli shift laboratory")
    ap.add_argument("--config", type=Path,
                    help="JSON file of option values; flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out-dir", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None,
                       help="report path (default <out-dir>/<cmd>_report.json)")
        for action in p._actions:
            # --help's default is SUPPRESS: it is no option to configure
            if (action.dest in file_values
                    and action.default is not argparse.SUPPRESS):
                _check_file_value(action, file_values[action.dest])
                action.required = False
                # argparse converts a string default through the option's
                # type, as it does a flag's text.  An append option would
                # add its flags to a list default; _config_from_args fills
                # it from the file instead
                if not isinstance(action, argparse._AppendAction):
                    action.default = str(file_values[action.dest])

    pm = sub.add_parser("measure").add_subparsers(dest="sub", required=True) \
        .add_parser("check")
    pm.add_argument("--measure", required=True,
                    help="compact spec, e.g. iid:0.3")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--k", type=int, action="append", dest="ks")
    common(pm)

    pf = sub.add_parser("factor").add_subparsers(dest="sub", required=True) \
        .add_parser("run")
    pf.add_argument("--measure", required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--radius", type=int, default=factor_mod.DEFAULT_RADIUS,
                    help="fair-bit half-window of the split code")
    common(pf)

    pma = sub.add_parser("match").add_subparsers(dest="sub", required=True) \
        .add_parser("run")
    pma.add_argument("--measure", required=True)
    pma.add_argument("--n", type=int, required=True)
    pma.add_argument("--dump-window", dest="dump_window",
                     help="also export the sampled window as index,value CSV")
    common(pma)

    pt = sub.add_parser("typeiii").add_subparsers(dest="sub", required=True) \
        .add_parser("ratios")
    pt.add_argument("--lambda", dest="lam", type=float, required=True)
    pt.add_argument("--lambda-prime", dest="lam_prime", type=float,
                    required=True)
    pt.add_argument("--n", type=int, default=40)
    pt.add_argument("--samples", type=int, default=10000)
    common(pt)

    pi = sub.add_parser("index").add_subparsers(dest="sub", required=True) \
        .add_parser("scan")
    pi.add_argument("--c", type=float, required=True)
    pi.add_argument("--kmax", type=int, required=True)
    common(pi)
    return ap


def _config_from_args(args: argparse.Namespace, file_values: dict):
    """(command, params, seed, out_dir) of a parsed command line, with the
    output directories created, so a path that cannot be one is refused
    before any work runs."""
    options = set(vars(args)) - {"command", "sub", "config"}
    unknown = sorted(set(file_values) - options)
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} for "
                         f"{args.command} {args.sub}")
    params = {k: getattr(args, k) for k in options - {"seed", "out_dir"}
              if getattr(args, k) is not None}
    # the append option --k takes no default from the file: fill it here
    if "ks" in options and "ks" not in params and "ks" in file_values:
        try:
            params["ks"] = [int(str(v)) for v in file_values["ks"]]
        except ValueError:
            raise ValueError(f"config value {json.dumps(file_values['ks'])} "
                             f"for --k: invalid int value") from None
    for key, least in (("n", 1), ("samples", 1), ("kmax", 1), ("radius", 0)):
        if params.get(key, least) < least:
            sign = "positive" if least else "non-negative"
            raise ValueError(f"--{key} must be a {sign} integer")
    out_dir = args.out_dir or Path(os.environ.get("SHIFTLAB_OUT", "."))
    dirs = [out_dir]
    if params.get("out"):                  # read from the working directory
        dirs.append(params["out"].parent)
    if params.get("dump_window"):
        dirs.append((out_dir / params["dump_window"]).parent)
    for path in dirs:
        path.mkdir(parents=True, exist_ok=True)
    return args.command, params, args.seed, out_dir


def main(argv: list[str] | None = None) -> int:
    try:
        file_values = _read_config_file(argv)
        args = _build_parser(file_values).parse_args(argv)
        command, params, seed, out_dir = _config_from_args(args, file_values)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"shiftlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        metrics, artifacts = _COMMANDS[command](params, seed, out_dir)
        config = {"command": command, "seed": seed, "out_dir": str(out_dir),
                  "params": {k: str(v) if isinstance(v, Path) else v
                             for k, v in params.items()}}
        report = {"version": __version__, "config": config,
                  "metrics": metrics, "artifacts": list(map(str, artifacts))}
        path = params.get("out") or out_dir / f"{command}_report.json"
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
