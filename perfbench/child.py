"""One benchmark invocation: start, import shiftlab.cli, run main(argv), exit.

    python child.py TIMING_JSON [--trace SPANS_JSON] -- CLI_ARGS...

Writes ``{"main_s", "rc", "setup_probe_s", "main_probe_s"}`` to
TIMING_JSON.  ``main_s`` is the time inside ``shiftlab.cli.main``;
everything else in the process's life is set-up.  With ``--trace`` the
layers are wrapped first (see tracer.py) and the spans are written to
SPANS_JSON after main returns.

Every PROBE_INTERVAL_S of process CPU time a signal handler times a fixed
loop.  The harmonic means of those times before and during ``main`` give
the host's speed in each phase, which run.py uses to normalise the timings.
The handler keeps only a running sum: probe results kept alive would pin
allocator arenas and raise the program's peak RSS.
"""
import json
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 3000

_acc = [0.0, 0]  # sum of 1 / probe time, number of probes


def _probe(signum, frame, _clock=time.perf_counter):
    t = _clock()
    for _ in range(PROBE_LOOPS):
        pass
    _acc[0] += 1.0 / (_clock() - t)
    _acc[1] += 1


def _take_probe_time() -> float | None:
    """Harmonic-mean probe time since the last call, or None."""
    total, count = _acc
    _acc[:] = [0.0, 0]
    return count / total if count else None


def run(args: list[str]) -> int:
    signal.signal(signal.SIGPROF, _probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    sep = args.index("--")
    timing_path, opts, argv = args[0], args[1:sep], args[sep + 1:]
    import shiftlab.cli
    main, rec = shiftlab.cli.main, None
    if opts:
        import tracer
        rec = tracer.Recorder()
        main = tracer.install(rec)
    setup_probe_s = _take_probe_time()
    t0 = time.perf_counter()
    rc = main(argv)
    main_s = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    main_probe_s = _take_probe_time()
    if rec is not None:
        rec.dump(opts[1])
    with open(timing_path, "w") as fh:
        json.dump({"main_s": main_s, "rc": rc,
                   "setup_probe_s": setup_probe_s,
                   "main_probe_s": main_probe_s}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
