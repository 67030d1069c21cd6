"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job names the studies (config and output directory each), the mode and
the result path.  Modes:

* ``full``: run every study through ``nlbiharm.cli.main --threads 1`` and
  record the time of the first operator apply (the end of set-up) and the
  wall time from the first study call to the return of the last one.  Every
  ``PROBE_PERIOD_S`` a timer signal interrupts the studies to take one
  host-speed sample (see hostspeed.py); the samples' wall and CPU time are
  recorded so they can be taken out again;
* ``setup``: the same, but stop at the first operator apply;
* ``trace``: run every study under the tracer and report layer metrics.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


PROBE_PERIOD_S = 0.1


class SetupDone(BaseException):
    """Raised at the first apply of a set-up probe; not an ``Exception`` so
    the CLI's error handling lets it through."""


def mark_first_apply(classes, marks: dict, stop: bool) -> None:
    """Record the time of the first ``apply`` on any of ``classes``, then put
    the original methods back so later calls run unwrapped."""
    saved = [(cls, cls.apply) for cls in classes]

    def make(original):
        def first_apply(self, *args, **kwargs):
            if "first_apply" not in marks:
                marks["first_apply"] = time.monotonic()
                for cls, fn in saved:
                    cls.apply = fn
                if stop:
                    raise SetupDone
            return original(self, *args, **kwargs)

        return first_apply

    for cls, fn in saved:
        cls.apply = make(fn)


def start_probes(workload: str, record: dict):
    """Take a host-speed sample on every ``SIGALRM`` until ``stop_probes``."""
    import hostspeed

    probe = hostspeed.Probe(workload)
    record.update(samples=[], probe_s=0.0, probe_cpu_s=0.0)

    def on_alarm(signum, frame):
        t, c = time.monotonic(), time.process_time()
        record["samples"].append(probe.sample())
        record["probe_s"] += time.monotonic() - t
        record["probe_cpu_s"] += time.process_time() - c

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    return probe


def stop_probes(probe, record: dict) -> None:
    """Stop sampling; a repetition too short for the timer gets one sample."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    if not record["samples"]:
        record["samples"].append(probe.sample())


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    mode = job["mode"]
    t0 = time.monotonic()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    from nlbiharm import cli, localref, nlop

    result = {"t_start": T_START, "import_s": time.monotonic() - t0, "studies": []}
    tracer = None
    marks: dict = {}
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    else:
        classes = [nlop.NonlocalOperator, getattr(localref, "LocalOperator", None)]
        mark_first_apply([c for c in classes if c], marks, stop=(mode == "setup"))

    if mode == "full":
        probe = start_probes(job["workload"], result)
    t_first = time.monotonic()
    try:
        for study in job["studies"]:
            argv = ["--config", study["config"], "--out", study["out"], "--threads", "1"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.span(f"cli.study.{study['name']}", lambda: cli.main(argv))
            result["studies"].append(
                {"name": study["name"], "rc": rc, "lines": buf.getvalue().splitlines()}
            )
    except SetupDone:
        pass
    t_last = time.monotonic()
    if mode == "full":
        stop_probes(probe, result)
    result["first_apply"] = marks.get("first_apply")
    result["wall_s"] = t_last - t_first - result.get("probe_s", 0.0)
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, result["wall_s"])
        layers["cli.csv_bytes"] = sum(
            p.stat().st_size for s in job["studies"] for p in Path(s["out"]).glob("*.csv")
        )
        layers["setup.import_s"] = result["import_s"]
        result["layers"] = layers
        result["skipped"] = tracer.skipped
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
