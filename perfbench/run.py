"""Seeded end-to-end and per-layer benchmark of intpow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from src/ of the checkout that holds this file, and
the CLI runs as the `intpow` module on the same sources.  Load comes from one
client in a closed loop: one CLI child at a time, no threads.

--trace 0 sets up the inputs three times (setup_s is the median), then
repeats the workload's batch until about S seconds have passed, at least
once.  A batch runs every CLI call as a subprocess, then the same work
through the library on inputs parsed beforehand.  Reported values are
medians over batches.

--trace 1 runs one batch for the per-size breakdown, then every CLI call
in-process through intpow.cli.main, untraced and then traced, then the
library work traced.  The per-layer metrics come from the traced spans;
trace.overhead_s is the traced minus the untraced in-process time.

Every output is checked outside the timed regions by perfbench/oracle.py.
Metric names and units come from BENCHMARK.json; earlier stdout lines are a
readable report and the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracer import COUNT, INVOCATION, NAME, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5


def import_package():
    """Put the checkout's src/ first on sys.path and import intpow from it;
    returns an error message, or None."""
    if not (SRC / "intpow" / "cli.py").is_file():
        return f"no intpow sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import intpow

    if Path(intpow.__file__).resolve().parent != SRC / "intpow":
        return f"imported intpow from {intpow.__file__}, not from {SRC}"
    return None


def load_manifest():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs `python -m intpow ARGS` and, at exit, writes the process's own peak
# RSS to stderr.  wait4's ru_maxrss cannot be used: at exec a child inherits
# the high-water mark of the harness it was forked from, while VmHWM
# belongs to the address space that exec creates.
CLI_CHILD = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\nVmHWM {kib}\\n")
atexit.register(peak)
runpy.run_module("intpow", run_name="__main__", alter_sys=True)
"""


def run_child(args, scratch):
    """Run one child to completion: (exit code, stdout, stderr, seconds)."""
    with tempfile.TemporaryFile("w+", dir=scratch) as out, \
            tempfile.TemporaryFile("w+", dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=child_env()
        )
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), elapsed


def run_cli(argv, scratch):
    """One intpow CLI call: (exit code, stdout, seconds, peak RSS in MiB)."""
    code, stdout, stderr, elapsed = run_child(["-c", CLI_CHILD, *argv], scratch)
    peaks = [int(line.split()[1]) for line in stderr.splitlines() if line.startswith("VmHWM ")]
    return code, stdout, elapsed, peaks[-1] / 1024 if peaks else 0.0


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reset(directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


class Run:
    """One benchmark run of one workload: its files, counts and failures."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.scratch = work
        self.attempted = 0
        self.failures = []
        self.setup_times = []
        self.input_digest = None

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def setup(self):
        """Generate the inputs SETUP_REPEATS times; every copy must be equal."""
        digests = set()
        for _ in range(SETUP_REPEATS):
            reset(self.inputs)
            start = time.perf_counter()
            instances = self.workload.setup(self.seed, self.inputs)
            self.setup_times.append(time.perf_counter() - start)
            digests.add(digest(self.inputs))
        if len(digests) != 1:
            raise RuntimeError("the generator is not deterministic for this seed")
        self.input_digest = digests.pop()
        self.instances = instances
        self.calls = self.workload.calls(instances, self.out)

    def batch(self):
        """Every CLI call as a subprocess, then the library ops; returns timings."""
        reset(self.out)
        ops = self.workload.lib_ops(self.instances, self.out)
        gc.collect()
        cli_times, outputs = [], []
        start = time.perf_counter()
        for call in self.calls:
            code, stdout, elapsed, rss = run_cli(call.argv, self.scratch)
            cli_times.append(elapsed)
            outputs.append((code, stdout, rss))
        cli_wall = time.perf_counter() - start
        for call, (code, stdout, rss) in zip(self.calls, outputs):
            problems = call.check(code, stdout) + ([] if rss else ["no peak RSS reported"])
            self.record(call.argv[0], problems)
        peak = max(rss for _, _, rss in outputs)
        gc.collect()
        lib_times, results = [], []
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            results.append(op.run())
            lib_times.append(time.perf_counter() - t)
        lib_wall = time.perf_counter() - start
        for op, result in zip(ops, results):
            self.record("library op", op.check(result))
        return {"cli_s": cli_wall, "lib_s": lib_wall, "peak_rss_mb": peak,
                "cli_times": cli_times, "lib_times": lib_times, "ops": ops}

    def per_size(self, batch):
        """(size, cli seconds, lib seconds) for each of the workload's sizes."""
        rows = []
        for n in self.workload.sizes:
            cli_s = sum(t for call, t in zip(self.calls, batch["cli_times"]) if call.size == n)
            lib_s = sum(t for op, t in zip(batch["ops"], batch["lib_times"]) if op.size == n)
            rows.append((n, cli_s, lib_s))
        return rows

    def in_process(self, tracer=None):
        """Every CLI call through intpow.cli.main in this process; seconds."""
        from intpow import cli

        reset(self.out)
        gc.collect()
        total, outputs = 0.0, []
        for index, call in enumerate(self.calls):
            if tracer is not None:
                tracer.invocation = index
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main(list(call.argv))
                except SystemExit as exc:
                    code = exc.code
                total += time.perf_counter() - start
            outputs.append((code, buffer.getvalue()))
        return total, outputs

    def check_outputs(self, outputs):
        for call, (code, stdout) in zip(self.calls, outputs):
            self.record(call.argv[0], call.check(code, stdout))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_end_to_end(run, seconds):
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(run.batch())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(batches) > seconds:
            break
    names = ("cli_s", "lib_s", "peak_rss_mb")
    metrics = {name: statistics.median(b[name] for b in batches) for name in names}
    metrics["setup_s"] = statistics.median(run.setup_times)
    print(f"batches: {len(batches)}")
    for name in names:
        q1, q2, q3 = quartiles([b[name] for b in batches])
        print(f"{name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g}")
    sizes = [run.per_size(b) for b in batches]
    for i, n in enumerate(run.workload.sizes):
        print(f"size.{n}.cli_s: {statistics.median(s[i][1] for s in sizes):.6g} s")
        print(f"size.{n}.lib_s: {statistics.median(s[i][2] for s in sizes):.6g} s")
    return metrics


SELF_TIMED = (
    "graphs.bfs_distances", "graphs.graph_power", "graphs.parse_graph",
    "intervals.intersection_graph", "intervals.proper_to_unit", "intervals.find_containment_pair",
    "intervals.normalize", "intervals.endpoint_orders", "intervals.parse_representation",
    "intervals.format_representation", "extension.extend_representation", "extension.format_trace",
    "trapezoids.search_representation", "trapezoids.count_interleavings_filter",
)
CALL_COUNTED = (
    "graphs.bfs_distances", "graphs.graph_power", "intervals.intersection_graph",
    "extension.extend_representation",
)
LAYERS = ("graphs", "intervals", "extension", "trapezoids", "cli")
COMMANDS = ("extend", "tounit", "trapezoid-search", "p5-demo")


def span_metrics(tracer, calls):
    """Per-layer metrics from the spans of the traced in-process CLI calls."""
    self_times, children = tracer.self_times()
    spans = tracer.spans
    count, self_s = Counter(), Counter()
    items = candidates = matches = 0
    for index, span in enumerate(spans):
        name, layer = span[NAME], span[NAME].partition(".")[0]
        count[name] += 1
        self_s[name] += self_times[index]
        self_s[layer] += self_times[index]
        if layer == "cli":
            self_s[f"cli.{calls[span[INVOCATION]].argv[0]}"] += self_times[index]
        if name == "trapezoids.enumerate_interleavings":
            items += span[COUNT]
        elif name == "trapezoids.search_representation":
            matches += span[COUNT]
            candidates += math.prod(
                spans[c][COUNT] for c in children[index]
                if spans[c][NAME] == "trapezoids.enumerate_interleavings"
            )
    vertex_steps = sum(
        call.size * (int(call.argv[3]) - 1 if "--iterate" in call.argv else 1)
        for call in calls if call.argv[0] == "extend")
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({f"{name}.calls": count[name] for name in CALL_COUNTED})
    metrics.update({f"{name}.self_s": self_s[name] for name in SELF_TIMED})
    metrics.update({f"cli.{command}.self_s": self_s[f"cli.{command}"] for command in COMMANDS})
    bfs_calls = count["graphs.bfs_distances"]
    metrics["graphs.bfs_per_vertex_step"] = bfs_calls / vertex_steps if vertex_steps else 0.0
    metrics["trapezoids.enumerate_interleavings.items"] = items
    metrics["trapezoids.candidates"] = candidates
    metrics["trapezoids.matches"] = matches
    metrics["trapezoids.match_ratio"] = matches / candidates if candidates else 0.0
    return metrics, sum(self_times)


def bfs_problems(tracer, expected, label):
    """Invocations whose BFS call count differs from the expected one."""
    counts = Counter(
        span[INVOCATION] for span in tracer.spans if span[NAME] == "graphs.bfs_distances"
    )
    return [
        f"{label} n={item.size}: {counts[index]} BFS calls, expected {item.bfs_calls}"
        for index, item in enumerate(expected)
        if item.bfs_calls is not None and counts[index] != item.bfs_calls
    ]


def measure_layers(run):
    batch = run.batch()
    metrics = {}
    for level, (n, cli_s, lib_s) in enumerate(run.per_size(batch), start=1):
        metrics[f"size.{level}.cli_s"] = cli_s
        metrics[f"size.{level}.lib_s"] = lib_s
        print(f"size.{level} is n={n}")

    untraced, outputs = run.in_process()
    run.check_outputs(outputs)
    with Tracer() as tracer:
        traced, outputs = run.in_process(tracer)
    run.check_outputs(outputs)
    overhead = traced - untraced
    layer_metrics, self_total = span_metrics(tracer, run.calls)
    metrics.update(layer_metrics)
    metrics["trace.overhead_s"] = overhead
    print(f"trace: traced {traced:.6g} s, untraced {untraced:.6g} s, "
          f"span self total {self_total:.6g} s")

    problems = tracer.problems() + bfs_problems(tracer, run.calls, "CLI")
    if abs(traced - self_total) > abs(overhead):
        problems.append(f"self times sum to {self_total:.6g} s, traced wall is {traced:.6g} s")
    ops = run.workload.lib_ops(run.instances, run.out)
    with Tracer() as lib_tracer:
        results = []
        for index, op in enumerate(ops):
            lib_tracer.invocation = index
            results.append(op.run())
    for op, result in zip(ops, results):
        run.record("library op", op.check(result))
    problems += lib_tracer.problems() + bfs_problems(lib_tracer, ops, "library")
    run.record("tracer self-check", problems)

    startup = []
    for _ in range(STARTUP_REPEATS):
        code, _, _, elapsed = run_child(["-c", "import intpow.cli"], run.scratch)
        run.record("import intpow.cli", [] if code == 0 else [f"exit code {code}"])
        startup.append(elapsed)
    metrics["cli.startup_s"] = statistics.median(startup)

    spans_path = WORK / f"spans-{run.workload.name}-{run.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return metrics


def metadata(seed, workload):
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            revision = (ROOT / ".git" / ref[5:]).read_text().strip()
    sources = hashlib.sha256()
    for path in sorted((SRC / "intpow").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": revision,
        "source_digest": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    error = import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    manifest = load_manifest()
    declared = {w["name"] for w in manifest["workloads"]}
    if args.workload not in declared or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(declared)}",
              file=sys.stderr)
        return 2

    meta = metadata(args.seed, args.workload)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    reset(work)
    try:
        run = Run(WORKLOADS[args.workload](), args.seed, work)
        run.setup()
        meta["input_digest"] = run.input_digest
        print("meta: " + json.dumps(meta))
        if args.trace:
            values, declared_metrics = measure_layers(run), manifest["per_layer"]
        else:
            values, declared_metrics = measure_end_to_end(run, args.seconds), manifest["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio: {failed / run.attempted:.6g} ({failed}/{run.attempted})")
    result = {
        "correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
