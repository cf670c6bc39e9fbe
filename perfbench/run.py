"""hacalc benchmark: time to a verified answer on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy, and the run stops with exit
code 2 when those sources are missing.  NAME is ``invariants``,
``groebner``, ``forms`` or ``all`` (each workload in turn, in its own
process).  The program sees only the inputs built from the seed.

A run first checks the README commands once per source version, in a
child process, and keeps the verdict under ``.bench_build/perfbench``.
It then repeats verified passes over the workload for about S seconds.
With ``--trace 0`` it reports the end-to-end metrics, each the median
over the run of a time scaled to the reference speed of ``pace.py`` by
the reference computations run next to it: ``solve_s`` is a pass with
every answer checked, ``top_query_s`` the workload's heavy query, and
``setup_s``, from a fresh interpreter to the first timed call, a child
process started between passes.  The measured medians are printed too,
on lines that start with ``#``.  With
``--trace 1`` untraced and traced passes alternate, and the run reports
the per-layer metrics of ``BENCHMARK.json`` and writes the spans of the
last traced pass to ``.bench_build/perfbench``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("invariants", "groebner", "forms")
SETUP_PROBES = 11
# reference computations a set-up probe runs after it is ready, to scale
# its set-up time by the speed of the machine at that moment
PROBE_REFERENCES = 3
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 170
README_TIMEOUT_S = 850


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up, then exit
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hacalc" / "__init__.py").is_file():
        print(f"error: hacalc sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hacalc.cli  # noqa: F401  -- what a user of `ha` imports first

    if not Path(hacalc.cli.__file__).resolve().is_relative_to(SRC):
        print("error: hacalc was not imported from the checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.probe:
        import pace

        workloads.build(args.workload, args.seed, args.size)
        print("ready", flush=True)
        took = []
        for _ in range(PROBE_REFERENCES):
            start = time.perf_counter()
            if pace.reference() != pace.EXPECTED:
                return 1
            took.append(time.perf_counter() - start)
        print(json.dumps(took))
        return 0
    if args.workload == "all":
        return _run_all(args)

    readme = _readme_verdict()
    w = workloads.build(args.workload, args.seed, args.size)
    if args.trace:
        metrics, problems, attempted = _traced_run(w, args.seconds)
    else:
        metrics, problems, attempted = _plain_run(w, args)
    attempted += readme["attempted"]
    problems += readme["problems"]
    failed = len(problems)
    for msg in problems:
        print(f"# FAILED {msg}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} answers wrong or raised)")
    print("# meta " + json.dumps(_meta(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- end-to-end ---------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _passes(w, seconds, pace, tracer=None, between=None):
    """Rounds of verified passes for about ``seconds`` (at least one).

    A round is one pass, then a traced pass when there is a tracer, then
    ``between()``; no round starts that would end past the deadline by
    the last round's length.  Returns the untraced results and the traced
    ones as (pass, tracer snapshot).
    """
    import workloads

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain.append(workloads.run_pass(w, pace))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                r = workloads.run_pass(w, pace)
            finally:
                tracer.uninstall()
            traced.append((r, tracer.snapshot()))
        if between is not None:
            between()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return plain, traced


def _check_passes(results):
    """Failed answers of every pass, plus answers that changed between
    passes; returns (problems, answers attempted)."""
    problems, attempted = [], 0
    first = results[0].answers
    for i, r in enumerate(results):
        attempted += r.attempted
        bad = {}
        for label, msg in r.failures:
            bad.setdefault(label, msg)
        if r.answers != first:
            for (label, a), (_, b) in zip(r.answers, first):
                if a != b:
                    bad.setdefault(label, f"answer changed: {a} vs {b}")
        problems += [f"pass {i} {label}: {msg}" for label, msg in bad.items()]
    return problems, attempted


def _plain_run(w, args):
    from pace import Pace

    pace = Pace()
    setups = []  # (measured, scaled) seconds

    def probe():
        setups.append(_probe_setup(args))

    # set-up probes run between passes, so that they meet the same
    # changes of machine speed as the passes do
    results, _ = _passes(w, args.seconds, pace, between=probe)
    while len(setups) < SETUP_PROBES:
        probe()
    problems, attempted = _check_passes(results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve = [(sum(r.step_s.values()),
              pace.scale(sum(r.step_s.values()), *r.pace_span))
             for r in results]
    top = [(r.query_s[w.top_query],
            pace.scale(r.query_s[w.top_query], *r.top_span))
           for r in results]
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
        "solve_s": _metric(statistics.median(s for _, s in solve), "s"),
        "top_query_s": _metric(statistics.median(s for _, s in top), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }
    print(f"# {w.name} seed={w.seed} size={w.size} passes={len(results)} "
          f"set-ups={len(setups)} references={pace.mark()}")
    for name, pairs in (("setup_s", setups), ("solve_s", solve),
                        ("top_query_s", top)):
        print(f"# measured {name} {statistics.median(m for m, _ in pairs):.6g}"
              f" s (median; scaled {name} is this times "
              f"{statistics.median(s / m for m, s in pairs):.4g})")
    return metrics, problems, attempted


def _median_pass_s(results, pace) -> float:
    """Median over ``results`` of a pass's time, checks included, scaled
    to the reference speed."""
    return statistics.median(pace.scale(sum(r.step_s.values()), *r.pace_span)
                             for r in results)


def _probe_setup(args) -> tuple:
    """Seconds from starting an interpreter to inputs ready for the first
    timed call (imports hacalc.cli and builds the workload), measured and
    scaled by the reference computations the child runs right after."""
    from pace import REFERENCE_S

    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    took = json.loads(rest)
    return elapsed, elapsed * REFERENCE_S / statistics.median(took)


# -- per layer ------------------------------------------------------------------


def _traced_run(w, seconds):
    import workloads
    from layers import Tracer, layer_metrics

    from pace import Pace

    pace = Pace()
    tracer = Tracer()
    plain, traced = _passes(w, seconds, pace, tracer=tracer)
    # traced answers must equal the untraced ones, like any rerun
    problems, attempted = _check_passes(plain + [r for r, _ in traced])
    counts = traced[0][1]["counts"]
    for i, (_, snap) in enumerate(traced[1:], 1):
        if snap["counts"] != counts:
            problems.append(f"traced pass {i}: counts differ from pass 0")
    rungs = {D: min(
        r.query_s.get(workloads.curve_label(workloads.README_CURVE, D), 0.0)
        for r in plain) for D in workloads.LADDER}
    metrics = layer_metrics(
        [snap for _, snap in traced], rungs,
        _median_pass_s([r for r, _ in traced], pace)
        / _median_pass_s(plain, pace),
        _import_times())
    STATE.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(STATE / f"spans-{w.name}.jsonl")
    print(f"# {w.name} seed={w.seed} size={w.size} passes={len(plain)} "
          f"untraced + {len(traced)} traced, {len(tracer.spans)} spans")
    return metrics, problems, attempted


def _import_times():
    """Median cumulative import times of hacalc.cli and of numpy, in
    seconds, from ``python -X importtime`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli, numpy = [], []
    for _ in range(IMPORTTIME_PROBES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hacalc.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        cli.append(cumulative["hacalc.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


# -- README commands, once per source version -------------------------------------


def _source_digest() -> str:
    h = hashlib.sha256(sys.version.encode())
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def _readme_verdict() -> dict:
    """The README check of these exact sources, run now if not yet kept."""
    stamp = STATE / "readme.json"
    digest = _source_digest()
    try:
        kept = json.loads(stamp.read_text())
        if kept["digest"] == digest:
            return kept
    except (OSError, ValueError, KeyError):
        pass
    proc = subprocess.run([sys.executable, str(HERE / "readme_check.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=README_TIMEOUT_S)
    try:
        verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        verdict = {"attempted": 1, "failed": 1,
                   "problems": [f"README check crashed: {proc.stderr[-500:]}"]}
    verdict["problems"] = [f"README {p}" for p in verdict["problems"]]
    verdict["digest"] = digest
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = stamp.with_suffix(".tmp")
    tmp.write_text(json.dumps(verdict))
    os.replace(tmp, stamp)
    return verdict


# -- all workloads ------------------------------------------------------------------


def _run_all(args) -> int:
    """Each workload in its own process; sums the verdicts."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 2 * args.seconds
                              + README_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def _meta(args) -> dict:
    """Run metadata, not metrics: machine, interpreter, code size."""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "hacalc").glob("*.py"))
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "python": platform.python_version(),
            "machine": platform.machine(), "processor": platform.processor(),
            "system": platform.platform(), "cpus": os.cpu_count(),
            "src_lines": src_lines}


if __name__ == "__main__":
    sys.exit(main())
