"""Benchmark command: one seeded workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 streambench/run.py --workload farm-paced --seed 1 \
        --seconds 20 --trace 0

The command splits the measuring time over several fresh interpreters
(parts), run one after the other.  Each part sets the workload up cold,
which gives one ``setup_s`` sample, then times runs for its share of
``--seconds``.  Pooling runs from several processes keeps one process's
thread placement or cache state from setting the result.

``--trace 0`` prints the end-to-end metrics of untraced runs.
``--trace 1`` alternates untraced and traced runs inside each part, then
times the layers in one more fresh interpreter and prints the per-layer
metrics, the layer ledger and the tracing overhead.
All program work runs in these child interpreters, each in a process
group of its own.  The command waits for every process a child leaves
behind (such as a multiprocessing resource tracker) to end before it
goes on, and kills what is still alive after a grace period.
Runs that raise count in ``failed``; ``correct`` is false only if a
run's output failed its check.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the two lines before it carry the
run's metadata and diagnostics.  See streambench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: never used while the benchmark was tuned; confirm a claimed gain on it
HELD_OUT_SEED = 7
#: fresh interpreters per invocation; each is one cold set-up sample
PARTS = 6
#: seconds a child's leftover processes get to end on their own
GRACE_S = 10.0


def _spec() -> dict:
    """Workload and metric names with units, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    role = p.add_mutually_exclusive_group()
    role.add_argument("--part", action="store_true",
                      help="run one part in this interpreter and print its "
                           "raw results (used by the command itself)")
    role.add_argument("--layers", action="store_true",
                      help="time the layers in this interpreter, given the "
                           "end-to-end values as JSON on stdin (used by the "
                           "command itself)")
    return p.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _import_workloads():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (imports repro)

    return workloads


# -- one part (a fresh interpreter) --------------------------------------

def _part(args) -> dict:
    """Cold set-up, then timed runs for ``args.seconds``.

    ``setup_s`` is interpreter-to-import plus :meth:`setup`, without the
    input generation in between.  A run that raises counts as failed; one
    whose check fails counts as failed and wrong.

    With ``--trace 1`` the untraced runs alternate with traced runs and,
    on a workload with a process-backend probe, with untraced runs on
    the process backend.  A probe run that raises counts in the probe's
    own error rate only, not in ``attempted`` or ``failed`` (see
    README.md); a wrong output counts as usual.
    """
    workloads = _import_workloads()
    t_import = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = t_import + time.perf_counter() - t0
    workload.reference()

    from repro.obs import SpanRecorder

    kinds = ["plain"]
    if args.trace:
        kinds.append("traced")
        if workload.probe_process:
            kinds.append("process")
    reps = {kind: [] for kind in kinds}
    attempted = failed = wrong = probe_raised = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or attempted < len(kinds):
        kind = kinds[attempted % len(kinds)]
        attempted += 1
        try:
            rep = workload.run_once(
                SpanRecorder() if kind == "traced" else None,
                "process" if kind == "process" else "thread")
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            print(f"run {attempted} ({kind}) raised {exc!r}", file=sys.stderr)
            if kind == "process":
                probe_raised += 1
            else:
                failed += 1
            continue
        if not rep.ok:
            print(f"run {attempted} ({kind}) failed its check",
                  file=sys.stderr)
            failed += 1
            wrong += 1
        reps[kind].append(rep)
    plain = reps["plain"]
    probes = len(reps.get("process", ())) + probe_raised
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": attempted - probe_raised, "failed": failed,
        "wrong": wrong,
        "runs": [{"items_per_s": r.items / r.wall, "mb_per_s": r.mb / r.wall,
                  "latency_p50_ms": statistics.median(r.latencies) * 1e3,
                  "wall": r.wall, "outside_makespan_s": r.outside_makespan,
                  "items": r.items, "mb": r.mb,
                  "jobs": r.latencies if workload.fast_end else None}
                 for r in plain],
        "traced_walls": [r.wall for r in reps.get("traced", ())],
        "process_latencies": [statistics.median(r.latencies) * 1e3
                              for r in reps.get("process", ())],
        "process_probes": probes, "process_raised": probe_raised,
        "counters": workload.counters(plain),
        "diagnostics": workload.diagnostics(plain),
    }


def _layers(args) -> dict:
    """Per-layer costs, ledger and baseline, given the measured e2e."""
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    lay = workload.layer_metrics(json.load(sys.stdin))
    lay["baseline.seq_items_per_s"] = workload.baseline_items_per_s()
    return lay


# -- child interpreters ----------------------------------------------------

def _become_subreaper() -> None:
    """Adopt the orphans of our children (Linux), so they can be reaped."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # leftovers then go to init; _reap still waits for them


def _reap(pgid: int) -> None:
    """Wait until no process of group ``pgid`` is left; kill it after
    :data:`GRACE_S`."""
    deadline = time.monotonic() + GRACE_S
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # an adopted orphan ended
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
        time.sleep(0.01)


def _child(args, role: str, seconds: float, timeout: float,
           stdin: str = "") -> dict:
    """Run this script with ``role`` in a fresh interpreter and process
    group; return the JSON of its last output line."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--trace", str(args.trace), role],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise SystemExit(f"error: a {role} child timed out")
    finally:
        if proc.returncode is None:  # interrupted: take the child down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _reap(proc.pid)
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise SystemExit(f"error: a {role} child exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _run_parts(args) -> list:
    share = args.seconds / PARTS
    return [_child(args, "--part", share, 30 + 2 * share)
            for _ in range(PARTS)]


def _per_run(parts, key) -> list:
    return [r[key] for p in parts for r in p["runs"]]


def _fastest_jobs(parts) -> dict:
    """Time metrics from the fastest time of each job over all runs.

    A run of a ``fast_end`` workload is a fixed list of jobs, each timed
    on its own (``Rep.latencies``).  As ``timeit`` takes the fastest of
    its repeats, each job's time is its fastest over the runs; the run
    they make up takes their sum.
    """
    runs = [r for p in parts for r in p["runs"]]
    best = [min(times) for times in zip(*(r["jobs"] for r in runs))]
    return {"items_per_s": runs[0]["items"] / sum(best),
            "mb_per_s": runs[0]["mb"] / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3}


def main(argv=None) -> int:
    spec = _spec()
    args = _parse(argv, spec)
    if args.part:
        print(json.dumps(_part(args)))
        return 0
    if args.layers:
        print(json.dumps(_layers(args)))
        return 0

    workloads = _import_workloads()
    _become_subreaper()
    # a terminated command takes its running child's group down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parts = _run_parts(args)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    wrong = sum(p["wrong"] for p in parts)
    # exact counts must repeat in every fresh interpreter
    if any(p["counters"] != parts[0]["counters"] for p in parts):
        print(f"counters differ between parts: "
              f"{[p['counters'] for p in parts]}", file=sys.stderr)
        failed += 1
        wrong += 1
    if not all(p["runs"] for p in parts):
        raise SystemExit("error: a part completed no untraced run")
    # the class only: inputs are made in the children
    workload = workloads.WORKLOADS[args.workload]
    if workload.fast_end:
        e2e = _fastest_jobs(parts)
    else:
        e2e = {key: statistics.median(_per_run(parts, key))
               for key in ("items_per_s", "mb_per_s", "latency_p50_ms")}
    e2e["setup_s"] = statistics.median(p["setup_s"] for p in parts)
    # a part's peak sits on one of two levels, by which glibc malloc arena
    # its threads' buffers land in; the lowest is what the job needs
    e2e["peak_rss_mb"] = min(p["peak_rss_mb"] for p in parts)
    e2e["outside_makespan_s"] = statistics.median(
        _per_run(parts, "outside_makespan_s"))
    print(json.dumps({"meta": {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "seconds": args.seconds, "parts": PARTS,
        "probe_process": workload.probe_process, "runs": attempted,
        "setup_samples_s": [p["setup_s"] for p in parts]}}))

    if args.trace:
        lay = _child(args, "--layers", args.seconds, 90.0,
                     json.dumps(e2e))
        # a layer off the workload's path reports 0
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = set(lay) - set(values)
        if unknown:
            raise SystemExit(f"error: unknown per-layer metrics {unknown}")
        values.update(parts[0]["counters"])
        values.update(lay)
        values["obs.trace_overhead_ratio"] = (
            statistics.median(w for p in parts for w in p["traced_walls"])
            / statistics.median(_per_run(parts, "wall")))
        values["error_rate"] = failed / attempted
        if workload.probe_process:
            lat = [v for p in parts for v in p["process_latencies"]]
            values["executor.process_latency_p50_ms"] = (
                statistics.median(lat) if lat else 0.0)
            values["executor.process_error_rate"] = (
                sum(p["process_raised"] for p in parts)
                / sum(p["process_probes"] for p in parts))
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    diagnostics = {key: statistics.median(p["diagnostics"][key] for p in parts)
                   for key in parts[0]["diagnostics"]
                   if all(key in p["diagnostics"] for p in parts)}
    print(json.dumps({"diagnostics": diagnostics}))
    # a run that raised produced no output to check: it counts in
    # ``failed``, while ``correct`` says no output was wrong
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
