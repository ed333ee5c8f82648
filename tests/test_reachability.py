"""Every function in ``src/shiftlab`` is run by some lab command, or is on
an allowlist that names the roadmap item meant to reach it.

The five commands run at smoke size in a fresh interpreter under
``sys.setprofile``, which sees every call of a Python function, those made
while importing included.  A function counts as reached when one of its
calls is seen.  A function nested in another is checked only when the one
around it is reached.  Class bodies and comprehensions are not functions,
and the methods ``dataclass`` writes have no source line, so neither is
checked.  A listed function that the commands do reach fails the test as
well, so the list can only shrink."""
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Each name waits for the open roadmap item that gives it a command.
UNREACHED = {
    # "The type-III_1 chain as a lab run": the mixture window, erased and
    # lifted
    "typeiii.HMapSpec.family", "typeiii.TypeIIISpec.__post_init__",
    "typeiii.TypeIIISpec.a_n", "typeiii.TypeIIISpec.intervals",
    "typeiii.f_family", "typeiii.shift_family", "typeiii.mix_disjoint",
    "typeiii.safe_zone", "typeiii._digit_shares",
    "typeiii.erase_negative_side", "typeiii.lift_lambda_on_negative",
    "typeiii.h_apply", "typeiii.generation_log_ratios",
    "measures.DensityFamily.validate", "measures.DensityFamily.integral",
    "sampling.sample_density_window", "sampling._piecewise_inverse_cdf",
    # "The speedup diagnostics as a lab run", with the RPM identities
    "speedups.zeta", "speedups.pi_interleave", "speedups._check_width",
    "speedups.eta_marginal", "speedups.kappa_marginal",
    "speedups.block_kakutani_sum",
    "speedups.rpm_scaling_identity", "measures.rpm",
    # "Lemma 8 on sampled windows"
    "markers.good_block_sequence", "matching.dominates",
    # "Kakutani's dichotomy on samples": the log-RN cocycle of seeded
    # windows
    "measures.log_rn_shift", "measures._log_mass",
    "measures.FiniteProductMeasure.density", "sampling.sample_window",
    "sampling._span_length",
}


def _reached(tmp_path) -> set:
    """(module, first line, qualified name) of every ``shiftlab`` function
    called while the commands run, from a fresh interpreter."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "iid:0.3", "n": 200, "ks": [1, 2]}))
    # (argv, expected exit code).  At smoke size the non-stationary sums
    # have not settled and the factor run censors more than 5%, so those
    # runs exit 1.  The last nine reach the error paths and far branches:
    # a window too short to leave any bit to test, a marginal with
    # negative mass, a lag read apart from the shared block; a window, a
    # measure check range, a sample count and a kmax beyond their caps; a
    # capacity of ~2.7e7, whose split code decodes only the dealt slots
    # and whose checks fail with reasons; and a report path that is an
    # existing directory.
    runs = [(["measure", "check", "--measure", spec, "--n", "200"], code)
            for spec, code in (("iid:0.3", 0), ("nu_c:0.1", 1),
                               ("mu:0.3,0.5", 1))]
    runs += [(["factor", "run", "--measure", "iid:0.3", "--n", "100000"], 1),
             (["match", "run", "--measure", "nu_c:0.1", "--n", "20000",
               "--dump-window", "window.csv"], 0),
             (["typeiii", "ratios", "--lambda", "0.25", "--lambda-prime",
               "0.5", "--samples", "200"], 0),
             (["index", "scan", "--c", "0.5", "--kmax", "3"], 0),
             (["--config", str(cfg), "measure", "check"], 0),
             (["factor", "run", "--measure", "iid:0.3", "--n", "2000"], 1),
             (["measure", "check", "--measure", "iid:1.5", "--n", "10"], 2),
             (["measure", "check", "--measure", "mu:0.3,0.5", "--n", "200",
               "--k", str(10**12)], 1),
             (["factor", "run", "--measure", "iid:0.3", "--n",
               str(10**12)], 2),
             (["measure", "check", "--measure", "iid:0.3", "--n",
               str(10**12)], 2),
             (["typeiii", "ratios", "--lambda", "0.25", "--lambda-prime",
               "0.5", "--samples", str(10**12)], 2),
             (["index", "scan", "--c", "0.5", "--kmax", str(10**9)], 2),
             (["factor", "run", "--measure", "mu:0.3,0.6999", "--n",
               "100000"], 1),
             (["measure", "check", "--measure", "iid:0.3", "--n", "100",
               "--out", str(tmp_path)], 2)]
    expected = [code for _, code in runs]
    runs = [[*argv, "--out-dir", str(tmp_path)] for argv, _ in runs]
    child = f"""
import contextlib, io, json, sys
seen = set()
def profile(frame, event, arg):
    name = frame.f_globals.get("__name__", "")
    if event == "call" and name.startswith("shiftlab"):
        code = frame.f_code
        seen.add((name, code.co_firstlineno, code.co_qualname))
sys.setprofile(profile)
from shiftlab import cli
codes = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({{"codes": codes, "seen": sorted(seen)}}))
"""
    out = subprocess.run([sys.executable, "-c", child],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    assert result["codes"] == expected, str(result["codes"])
    return {tuple(key) for key in result["seen"]}


def _functions(code, module: str, outer: str | None = None):
    """(key, name, name of the enclosing function) for every function
    compiled from ``code``, nested ones included."""
    for const in code.co_consts:
        if not hasattr(const, "co_qualname"):
            continue
        name = f"{module}.{const.co_qualname}"
        is_function = (const.co_flags & inspect.CO_NEWLOCALS
                       and not const.co_name.endswith("comp>")
                       and const.co_name != "<genexpr>")
        if is_function:
            key = (f"shiftlab.{module}", const.co_firstlineno,
                   const.co_qualname)
            yield key, name, outer
        yield from _functions(const, module, name if is_function else outer)


def test_every_src_function_is_reached_or_listed(tmp_path):
    reached = _reached(tmp_path)
    unreached = []
    for path in sorted((SRC / "shiftlab").glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        names = {}
        for key, name, outer in _functions(code, path.stem):
            names[name] = key in reached
            if not names[name] and (outer is None or names[outer]):
                unreached.append(name)
    missed = sorted(set(unreached) - UNREACHED)
    assert not missed, f"no command reaches {', '.join(missed)}"
    stale = sorted(UNREACHED - set(unreached))
    assert not stale, f"reached or gone, so off the list: {', '.join(stale)}"
