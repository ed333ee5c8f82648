"""shiftlab benchmark: four CLI workloads timed as child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the ``src/`` of the checkout it sits in.  Each
invocation is a fresh interpreter (child.py) that imports shiftlab.cli,
runs ``main(argv)`` and exits, one at a time from this single parent.  The
parent times it from spawn to exit and reads its rusage with ``os.wait4``;
the child reports the time inside ``main``.  After each invocation the
outputs are checked (checks.py).  Invocations repeat until ``--seconds``
have passed, and each metric is the median over them.  Times are scaled to
a reference host speed, measured by a probe inside each child.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations (tracer.py), then runs
``python -X importtime`` once, and prints the per-layer metrics, the
tracing overhead and the import split.

The last line of standard output is the result object; the line before it
holds provenance, per-invocation figures and output digests.  See
README.md for the workloads, metrics and predictions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# The probe loop of child.py takes this long on an uncontended 2-vCPU Xeon
# VM, the reference host.  Timings are scaled to that speed.
PROBE_NOMINAL_S = 60e-6
REFERENCE_DIGESTS = HERE / "reference_digests.json"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "items/s",
             "cpu_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    items: int                    # symbols, index range or samples
    check: Callable[..., list[str]]
    expect: dict


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` gives the smoke-test sizes.

    factor-iid keeps n = 500 000 when tiny: about 16k positions near the
    window edges are censored whatever n is, so smaller windows fail the
    censor_fraction < 0.05 check.
    """
    n_factor = 500_000 if tiny else 2_000_000
    n = 20_000 if tiny else 1_000_000
    samples = 200 if tiny else 20_000
    return {
        "factor-iid": Workload(
            ("factor", "run", "--measure", "iid:0.3", "--n", str(n_factor)),
            n_factor, checks.check_factor,
            {"q": 2 * 0.3 ** 3 * 0.7 ** 5, "d": 882}),
        "match-nu": Workload(
            ("match", "run", "--measure", "nu_c:0.1", "--n", str(n)),
            n, checks.check_match, {"c": 0.1, "n": n, "d": 1631}),
        "measure-mu": Workload(
            ("measure", "check", "--measure", "mu:0.3,0.5", "--n", str(n)),
            n, checks.check_measure, {"p": 0.3, "c": 0.5, "n": n}),
        "typeiii-ratios": Workload(
            ("typeiii", "ratios", "--lambda", "0.25", "--lambda-prime", "0.5",
             "--n", "30", "--samples", str(samples)),
            samples, checks.check_typeiii, {"samples": samples}),
    }


@dataclass
class Invocation:
    wall_s: float
    main_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[str]
    digests: dict[str, str]
    csv_rows: int
    artifact_bytes: int
    trace: dict | None = None
    setup_probe_s: float | None = None
    main_probe_s: float | None = None

    def normalised(self) -> tuple[float, float]:
        """(set-up, main) seconds scaled to the reference host speed, each
        by the probe times of its own phase."""
        setup = self.setup_probe_s or self.main_probe_s or PROBE_NOMINAL_S
        main = self.main_probe_s or setup
        return ((self.wall_s - self.main_s) * PROBE_NOMINAL_S / setup,
                self.main_s * PROBE_NOMINAL_S / main)


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SHIFTLAB_OUT", None)
    return env


def _spawn(args: list[str], work: Path):
    """Run one child to completion; return (wall seconds, exit code, rusage)."""
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=work, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def _clear(work: Path) -> None:
    for path in work.iterdir():
        path.unlink()


def _normalised_report(text: str) -> bytes:
    """The report with its path fields reduced to names, so digests do not
    depend on where the checkout lives."""
    report = json.loads(text)
    report["config"]["out_dir"] = "<out>"
    report["artifacts"] = [Path(a).name for a in report["artifacts"]]
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def invoke(w: Workload, seed: int, work: Path, verdicts: dict,
           traced: bool = False) -> Invocation:
    """Run one command in a fresh child, then check its outputs.

    ``verdicts`` maps output digests to check results: outputs identical to
    ones already checked get the same verdict without checking again.
    """
    _clear(work)
    argv = [*w.argv, "--seed", str(seed)]
    opts = ["--trace", str(work / "spans.json")] if traced else []
    wall, rc, usage = _spawn(
        [sys.executable, str(HERE / "child.py"), str(work / "timing.json"),
         *opts, "--", *argv], work)
    inv = Invocation(wall_s=wall, main_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0,
                     failures=[], digests={}, csv_rows=0, artifact_bytes=0)
    if rc != 0:
        err = (work / "stderr.txt").read_text(errors="replace").strip()
        inv.failures.append(f"exit code {rc}: {err[-500:]}")
    try:
        timing = json.loads((work / "timing.json").read_text())
        inv.main_s = timing["main_s"]
        inv.setup_probe_s = timing["setup_probe_s"]
        inv.main_probe_s = timing["main_probe_s"]
        report_path = work / f"{w.argv[0]}_report.json"
        text = report_path.read_text()
        report = json.loads(text)
        inv.digests[report_path.name] = hashlib.sha256(
            _normalised_report(text)).hexdigest()
        inv.artifact_bytes = len(text.encode())
        for name in report["artifacts"]:
            data = (work / Path(name).name).read_bytes()
            inv.artifact_bytes += len(data)
            if name.endswith(".csv"):
                inv.csv_rows += data.count(b"\n") - 1
                inv.digests[Path(name).name] = hashlib.sha256(data).hexdigest()
        if report["config"]["seed"] != seed:
            inv.failures.append(f"report seed {report['config']['seed']}")
        inv.failures += [f"report metric {m['name']} failed"
                         for m in report["metrics"] if not m.get("pass", True)]
        key = tuple(sorted(inv.digests.items()))
        if key not in verdicts:
            verdicts[key] = w.check(work, report, w.expect, seed)
        inv.failures += verdicts[key]
        if traced:
            inv.trace = json.loads((work / "spans.json").read_text())
    except Exception as exc:  # noqa: BLE001  (any error is a failed check)
        inv.failures.append(f"output check raised {type(exc).__name__}: {exc}")
    return inv


def warm_up(work: Path) -> None:
    """One untimed import, so byte-compilation and a cold file cache do
    not land in the first timed invocation."""
    _clear(work)
    _spawn([sys.executable, "-c", "import shiftlab.cli"], work)


def import_split(work: Path) -> dict[str, float]:
    """Cumulative import time of the two heavy layers, from -X importtime."""
    _clear(work)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import shiftlab.cli"],
        cwd=work, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    # A module that is not imported at start-up costs nothing there.
    return {"stattests.import_s": cumulative.get("shiftlab.stattests", 0.0),
            "measures.import_s": cumulative.get("shiftlab.measures", 0.0)}


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(w: Workload, invs: list[Invocation]) -> dict[str, float]:
    """Medians over the invocations; times at the reference host speed.
    CPU time is scaled by the same factor as the wall time."""
    norm = [i.normalised() for i in invs]
    return {
        "wall_s": _median(s + m for s, m in norm),
        "setup_s": _median(s for s, _ in norm),
        "items_per_s": _median(w.items / m for _, m in norm),
        "cpu_s": _median(i.cpu_s * sum(n) / i.wall_s for i, n in zip(invs, norm)),
        "peak_rss_mb": _median(i.peak_rss_mb for i in invs),
    }


def per_layer(pairs: list[tuple[Invocation, Invocation]],
              imports: dict[str, float]) -> dict[str, float]:
    """Medians over (untraced, traced) pairs of the traced figures."""
    runs = []
    for plain, traced in pairs:
        m = tracer.layer_metrics(traced.trace or tracer.EMPTY_TRACE)
        m["cli.csv_rows"] = traced.csv_rows
        m["cli.artifact_bytes"] = traced.artifact_bytes
        m["trace.overhead_s"] = traced.normalised()[1] - plain.normalised()[1]
        runs.append(m)
    out = {k: _median(r[k] for r in runs) for k in runs[0]}
    out.update(imports)
    return out


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_fraction"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def provenance(seed: int) -> dict:
    prov = {"git_sha": None, "git_dirty": None, "nproc": os.cpu_count(),
            "cpu_model": platform.machine(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "seed": seed}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        prov["git_sha"] = git("rev-parse", "HEAD") or None
        prov["git_dirty"] = bool(git("status", "--porcelain"))
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    prov["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return prov


def reference_status(w: Workload, seed: int, digests: dict) -> str:
    """'same' or 'changed' against the recorded digests of this command
    line, or 'none' when none are recorded.  Never a failure."""
    key = " ".join([*w.argv, "--seed", str(seed)])
    ref = json.loads(REFERENCE_DIGESTS.read_text()).get(key)
    if ref is None:
        return "none"
    return "same" if ref == digests else "changed"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict]:
    """Measure one workload; return (detail, result) objects."""
    warm_up(work)
    invs: list[Invocation] = []
    pairs: list[tuple[Invocation, Invocation]] = []
    verdicts: dict = {}
    start = time.perf_counter()
    while not invs or time.perf_counter() - start < seconds:
        invs.append(invoke(w, seed, work, verdicts))
        if trace:
            invs.append(invoke(w, seed, work, verdicts, traced=True))
            pairs.append((invs[-2], invs[-1]))
    metrics = (per_layer(pairs, import_split(work)) if trace
               else end_to_end(w, invs))
    failed = sum(1 for i in invs if i.failures)
    digests = invs[0].digests
    detail = {
        "argv": list(w.argv), "seed": seed, "seconds": seconds,
        "trace": trace, "provenance": provenance(seed),
        "failed_fraction": failed / len(invs),
        "failures": sorted({f for i in invs for f in i.failures}),
        "digests": digests,
        "digests_stable": all(i.digests == digests for i in invs),
        "digests_vs_reference": reference_status(w, seed, digests),
        "trace_observer_errors": sum(
            i.trace["counts"].get("trace.observer_errors", 0)
            for i in invs if i.trace),
        "invocations": [
            {"wall_s": i.wall_s, "main_s": i.main_s, "cpu_s": i.cpu_s,
             "peak_rss_mb": i.peak_rss_mb, "setup_probe_s": i.setup_probe_s,
             "main_probe_s": i.main_probe_s,
             "normalised_setup_main_s": i.normalised(),
             "traced": i.trace is not None, "ok": not i.failures}
            for i in invs],
    }
    result = {
        "correct": failed == 0, "attempted": len(invs), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shiftlab" / "cli.py").is_file():
        print(f"perfbench: no shiftlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the child is stopped and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        detail, result = run_workload(workloads()[args.workload], args.seed,
                                      args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_fraction':34s} {detail['failed_fraction']:>16.6g} ratio",
          file=sys.stderr)
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
