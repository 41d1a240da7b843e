"""seprat benchmark: one workload per process, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the workload's ops run back to back for about S seconds and
the end-to-end metrics are reported, with their times rescaled to a
reference machine speed that a calibration loop measures on a timer
meanwhile (see `workloads.SpeedProbe`).  With `--trace 1` a fixed op list
(independent of S) runs once untraced and twice traced; the per-layer
self times and counts come from the first traced pass, the counts must
repeat exactly in the second, and the tracing overhead is traced minus
untraced time.  Every output is checked by an oracle outside the timed
region; failed checks count in `failed`.  The last line of stdout is the
result as JSON; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3

# name -> unit; the benchmark prints exactly these, and BENCHMARK.json
# must declare the same names and units.
END_TO_END = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cnf.parse_s": "s",
    "reduction.reduce_s": "s",
    "reduction.gadget_s": "s",
    "reduction.constants_s": "s",
    "reduction.json_s": "s",
    "numerics.dot_calls": "count",
    "rpcore.grid_s": "s",
    "rpcore.grid_points": "count",
    "rpcore.z_parts": "count",
    "rpcore.revealed_s": "s",
    "rpcore.one_edges": "count",
    "rpcore.topo_s": "s",
    "rpcore.topo_calls": "count",
    "rpcore.cycle_s": "s",
    "rpcore.cycle_calls": "count",
    "septest.decide_s": "s",
    "septest.arena_s": "s",
    "septest.arena_edges": "count",
    "septest.adjacency_s": "s",
    "septest.adjacency_calls": "count",
    "septest.iterations": "count",
    "septest.blocking_clause_len": "literals",
    "septest.verify_s": "s",
    "septest.orders_explored": "count",
    "satcore.init_s": "s",
    "satcore.init_clauses": "count",
    "satcore.solve_s": "s",
    "satcore.solve_calls": "count",
    "satcore.conflicts": "count",
    "satcore.learned": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def git_revision() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input (smoke test)")
    return parser.parse_args(argv)


def _line(name, value, unit):
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"  {name:<30} {value} {unit}")


def _end_to_end(workload, args, setup_times):
    from workloads import check_samples, measure, median
    samples, probe = measure(workload.rounds, args.seconds)
    times = [s.seconds for s in samples]
    scaled = probe.rescale(samples)
    slowdown = probe.slowdown()
    metrics = {
        "op_s.p50": median(scaled),
        "ops_per_s": len(scaled) / sum(scaled),
        "setup_s": median(setup_times) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    failures = check_samples(samples)
    print(f"  ops: {len(samples)} over {sum(times):.3f} s busy "
          f"({len(workload.rounds[0])} per round); mean machine slowdown "
          f"{slowdown:.4f} against the reference speed; the lines before "
          f"the four metrics are raw, the four are rescaled")
    for name, value, unit in workload.report(samples):
        _line(name, value, unit)
    _line("failed_share", len(failures) / len(samples),
          f"({len(failures)}/{len(samples)})")
    _line("setup_s (raw, each setup)",
          ", ".join(f"{t:.4f}" for t in setup_times), "s")
    for name, unit in END_TO_END.items():
        _line(name, metrics[name], unit)
    return samples, failures, metrics, True     # no counts to repeat


def _traced(workload, seed_label):
    from tracing import Tracer
    from workloads import check_samples, run_ops
    ops = workload.trace_ops
    untraced = run_ops(ops)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            samples = run_ops(ops, tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, samples))
    (first, samples), (second, samples2) = passes
    untraced_s = sum(s.seconds for s in untraced)
    traced_s = sum(s.seconds for s in samples)
    failures = check_samples(untraced + samples + samples2)
    repeat = first.counts == second.counts
    if not repeat:
        diff = {k: (v, second.counts[k]) for k, v in first.counts.items()
                if second.counts[k] != v}
        print(f"  MISMATCH counts differ between traced passes: {diff}")
    layer = first.layer_metrics()
    blocks = layer.pop("septest.blocking_clauses")
    literals = layer.pop("septest.blocking_literals")
    layer["septest.blocking_clause_len"] = literals / blocks if blocks else 0.0
    layer.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                  "trace.overhead_s": traced_s - untraced_s})
    print(f"  traced ops: {len(ops)} (fixed by seed {seed_label}), "
          f"spans: {len(first.spans)}, overhead "
          f"{(traced_s - untraced_s) / untraced_s:+.1%} of untraced time")
    print(f"  counts repeat across two traced passes: {repeat}")
    for name, unit in PER_LAYER.items():
        _line(name, layer[name], unit)
    return untraced + samples + samples2, failures, layer, repeat


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import seprat
    except ImportError as exc:
        print(f"error: cannot import seprat from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(seprat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: seprat was imported from {seprat.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        print(f"# seprat benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
        print(f"# revision={git_revision()} "
              f"python={platform.python_version()} "
              f"({platform.python_implementation()})")
        print(f"# {workload.why}")
        if args.trace:
            samples, failures, values, counts_repeat = _traced(
                workload, args.seed)
            units = PER_LAYER
        else:
            samples, failures, values, counts_repeat = _end_to_end(
                workload, args, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work_root.rmdir()

    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures and counts_repeat,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
