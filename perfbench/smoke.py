"""Tiny-size smoke check of the benchmark.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's metric and workload rules,
runs every workload at tiny sizes through the same code as run.py, once
for the end-to-end metrics and once traced, prints every declared metric
with its unit, and shows that each output check and the tracer's BFS
self-check reject a deliberately corrupted result.  Exits 1 on any failure.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def manifest_problems(manifest):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(manifest) != keys:
        problems.append(f"keys {sorted(manifest)}")
    names = [w["name"] for w in manifest["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in manifest[group]]
        for metric in manifest[group]:
            wanted = {"name", "unit", "better"} | ({"bound"} if group == "end_to_end" else set())
            if set(metric) != wanted or metric["better"] not in ("higher", "lower"):
                problems.append(f"{group} entry {metric}")
            if not UNIT.fullmatch(metric["unit"]):
                problems.append(f"unit {metric['unit']!r}")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound of {metric['name']}")
    problems += [f"name {name!r}" for name in names if not NAME.fullmatch(name)]
    problems += [f"name {name!r} used twice" for name in set(names) if names.count(name) > 1]
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be declared in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in manifest["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if not 2 <= len(manifest["workloads"]) <= 8 or not 1 <= manifest["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def rewrite(path, edit):
    """Apply edit to the file's lines; returns the original text."""
    path = Path(path)
    original = path.read_text(encoding="utf-8")
    path.write_text("\n".join(edit(original.splitlines())) + "\n", encoding="utf-8")
    return original


def shift_last_endpoint(lines):
    *head, last = lines[-1].split()
    return lines[:-1] + [" ".join(head + [str(int(last) + 1)])]


def move_first_to_end(lines):
    """Vertex 1's record moved past every other endpoint."""
    vertex, *coords = lines[1].split()
    moved = [str(10**9 + i) for i in range(len(coords))]
    return [lines[0], " ".join([vertex] + moved)] + lines[2:]


def option(call, flag):
    return call.argv[call.argv.index(flag) + 1]


def must_reject(label, problems):
    print(f"corrupted {label}: {'rejected' if problems else 'ACCEPTED'}")
    return [] if problems else [f"corrupted {label} was accepted"]


def corruption_checks(smoke):
    """Corrupt one output per check and expect the check to fail."""
    failures = []
    for call in smoke.calls:
        code, stdout, _, _ = run.run_cli(call.argv, smoke.scratch)
        if call.check(code, stdout):
            failures.append(f"{call.argv[0]} failed before corruption")
            continue
        files = []
        command = call.argv[0]
        if command == "extend":
            out, trace = option(call, "--out"), option(call, "--trace")
            if "--iterate" in call.argv:
                out, trace = f"{out}.k{call.argv[3]}", f"{trace}.k{call.argv[3]}"
            files = [("moved interval", out, move_first_to_end),
                     ("trace new_right", trace, shift_last_endpoint)]
            report = stdout.replace("RESULT: OK", "RESULT: FAIL")
            failures += must_reject("extend report", call.check(code, report))
        elif command == "tounit":
            files = [("unit length", option(call, "--out"), shift_last_endpoint)]
        elif command == "trapezoid-search":
            report = stdout.replace("MATCHES: ", "MATCHES: 1")
            failures += must_reject("match count", call.check(code, report))
            report = stdout.replace("CANDIDATES: ", "CANDIDATES: 2")
            failures += must_reject("candidate count", call.check(code, report))
            match = Path(option(call, "--out"))
            if match.is_file():
                files = [("moved trapezoid", match, move_first_to_end)]
        elif command == "p5-demo":
            report = stdout.replace("MATCHES_TARGET: 0", "MATCHES_TARGET: 1")
            failures += must_reject("p5-demo target", call.check(code, report))
            report = stdout.replace("CONTROL: 16", "CONTROL: 15")
            failures += must_reject("p5-demo control", call.check(code, report))
        for label, path, edit in files:
            original = rewrite(path, edit)
            failures += must_reject(f"{command} {label}", call.check(code, stdout))
            Path(path).write_text(original, encoding="utf-8")
        failures += must_reject(f"{command} exit code", call.check(1, stdout))
    return failures


def main():
    error = run.import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import ExtendDense, ProperChain, TrapezoidSweep

    manifest = run.load_manifest()
    failures = [f"BENCHMARK.json: {p}" for p in manifest_problems(manifest)]
    tiny = [ExtendDense((8, 16, 32)), ProperChain((8, 16, 32)), TrapezoidSweep((4, 5, 6))]
    declared = {w["name"] for w in manifest["workloads"]}
    if {w.name for w in tiny} != declared:
        failures.append(f"declared workloads {sorted(declared)} differ from the implemented ones")
    for workload in tiny:
        print(f"== {workload.name} at n={workload.sizes}")
        work = run.WORK / f"smoke-{workload.name}"
        run.reset(work)
        try:
            smoke = run.Run(workload, 1, work)
            smoke.setup()
            values = run.measure_end_to_end(smoke, 0)
            values.update(run.measure_layers(smoke))
            for group in ("end_to_end", "per_layer"):
                for metric in manifest[group]:
                    if metric["name"] not in values:
                        failures.append(f"{workload.name}: no value for {metric['name']}")
                        continue
                    print(f"{metric['name']}: {values[metric['name']]:.6g} {metric['unit']}")
            failures += [f"{workload.name}: {f}" for f in smoke.failures]
            failures += [f"{workload.name}: {f}" for f in corruption_checks(smoke)]
            if isinstance(workload, ExtendDense):
                for call in smoke.calls:
                    call.bfs_calls += 1
                smoke.failures.clear()
                run.measure_layers(smoke)
                failures += must_reject("BFS count expectation", smoke.failures)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("smoke: OK" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
