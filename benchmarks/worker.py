"""Child process of the benchmark that calls qtoric in-process.

Modes::

    worker.py lib --workload W --seed S
        Build the workload's library states, run one untimed warm-up pass,
        print "ready", then serve commands on stdin: "pass OUT" runs the
        workload's library passes, each between runs of the reference loop of
        speed.py, writes their seconds at nominal speed and their results to
        OUT, and prints "done"; "quit" or the end of input exits.
    worker.py trace --plan PLAN
        Run the sections of the plan in-process: a warm-up round of each,
        then the workload's untraced and traced rounds in the plan's order,
        then a traced round of each probe section. Writes outputs, spans and
        wall times where the plan says.
    worker.py cold --probe certificate|epsilon --workload W --seed S
        One first call in this fresh process; prints its time, and how far
        peak resident memory rose above the memory in use before the call, as
        JSON.

The library pass of ``analyze`` workloads calls ``qtoric.analyze`` on each
state. The pass of ``relations`` workloads builds each state's relation table
with ``qtoric.relation_residual`` over ``qtoric.segre_relations(m)`` and
takes ``qtoric.max_segre_residual``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import warnings

import gen
import qtoric
import qtoric.cli
import speed
import tracer as tracing


def lib_states(workload: str, seed: int) -> list:
    inputs = gen.generate(workload, seed)
    return [qtoric.MultiQubitState(inputs.cases[i].m, inputs.cases[i].amps) for i in inputs.lib]


def relation_table(state):
    relations = qtoric.segre_relations(state.num_qubits)
    residuals = [qtoric.relation_residual(state, r) for r in relations]
    return relations, residuals, qtoric.max_segre_residual(state)


def lib_pass(workload: str, states: list, tracer=None) -> tuple[float, list]:
    """Run the library entry point once per state; return seconds and outcomes."""
    op = relation_table if workload in gen.RELATION_WORKLOADS else qtoric.analyze
    if tracer is not None:
        op = tracer.wrap("bench.lib", op)
    outcomes = []
    start = time.perf_counter()
    for state in states:
        try:
            outcomes.append(op(state))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcomes.append(exc)
    return time.perf_counter() - start, outcomes


def serialise(outcome) -> dict:
    if isinstance(outcome, Exception):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    if isinstance(outcome, tuple):
        relations, residuals, largest = outcome
        return {
            "relations": [[*r.lhs, *r.rhs] for r in relations],
            "residuals": residuals,
            "max_residual": largest,
        }
    return outcome.to_dict()


def write_results(path: str, seconds: list[float], passes: list[list]) -> None:
    payload = {"seconds": seconds, "results": [[serialise(o) for o in p] for p in passes]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def serve(args) -> int:
    states = lib_states(args.workload, args.seed)
    repeats = gen.WORKLOADS[args.workload]["lib_repeats"]
    lib_pass(args.workload, states)
    print("ready", flush=True)
    for line in sys.stdin:
        command, _, out = line.strip().partition(" ")
        if command == "quit":
            return 0
        if command != "pass":
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
        seconds, passes = [], []
        for _ in range(repeats):
            with speed.Scaled() as scale:
                wall, outcomes = lib_pass(args.workload, states)
            seconds.append(wall * scale.factor)
            passes.append(outcomes)
        write_results(out, seconds, passes)
        print("done", flush=True)
    return 0


def run_cli(argv: list[str], out: str) -> int:
    with open(out, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        try:
            return qtoric.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def run_section(section: dict, states: list, phase: str, tracer=None) -> dict:
    """One round of a section: its CLI invocations, then its library passes."""
    codes = []
    for invocation in section["cli"]:
        call = run_cli
        if tracer is not None:
            call = tracer.wrap(f"bench.cli.{invocation['role']}", run_cli)
        codes.append(call(invocation["argv"], invocation["out"][phase]))
    runs = [lib_pass(section["workload"], states, tracer) for _ in range(section["lib_repeats"])]
    return {"codes": codes, "seconds": [t for t, _ in runs], "outcomes": [o for _, o in runs]}


def trace(args) -> int:
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    sections = plan["sections"]
    states = [lib_states(s["workload"], plan["seed"]) for s in sections]
    for section, st in zip(sections, states):
        run_section(section, st, "warmup")

    tracer = tracing.Tracer()
    walls, codes = {}, {}

    def round_of(section: dict, st: list, phase: str, root: str | None) -> None:
        # root is the section span of a traced round, None for an untraced one.
        if root is not None:
            tracer.install()
            tracer.enabled = True
        start = time.perf_counter()
        if root is None:
            outcome = run_section(section, st, phase)
        else:
            outcome = tracer.span(root, run_section, section, st, phase, tracer)
        walls[phase] = time.perf_counter() - start
        tracer.enabled = False
        tracer.uninstall()
        codes[phase] = outcome["codes"]
        write_results(section["lib_out"][phase], outcome["seconds"], outcome["outcomes"])

    # The plan alternates untraced and traced rounds of the workload, so that
    # drift in the machine's speed falls on both sides of the overhead.
    for phase in plan["workload_rounds"]:
        traced = phase.startswith("traced")
        round_of(sections[0], states[0], phase, tracing.WORKLOAD_SECTION if traced else None)
    for section, st in zip(sections[1:], states[1:]):
        round_of(section, st, "probe", tracing.PROBE_SECTION)
        codes[section["workload"]] = codes.pop("probe")

    with open(plan["summary_out"], "w", encoding="utf-8") as handle:
        json.dump({"walls": walls, "codes": codes}, handle)
    with open(plan["spans_out"], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return 0


def memory_kb(field: str) -> int:
    """A memory figure of this process from /proc/self/status, in KiB.

    VmHWM is the peak since this program started. getrusage would report
    at least the memory of the parent at fork time instead.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def cold(args) -> int:
    inputs = gen.generate(args.workload, args.seed)
    if args.probe == "certificate":
        case = inputs.cases[inputs.setup]
        call = qtoric.max_segre_residual
    else:
        case = next(inputs.cases[i] for i in inputs.lib if inputs.cases[i].m == 4)
        call = qtoric.tau4_epsilon_oracle
    state = qtoric.MultiQubitState(case.m, case.amps)
    before = memory_kb("VmRSS")
    start = time.perf_counter()
    call(state)
    seconds = time.perf_counter() - start
    after = memory_kb("VmHWM")
    print(json.dumps({"seconds": seconds, "rss_mb": max(0, after - before) / 1024}))
    return 0


def main() -> int:
    # Rescaled states overflow inside qtoric; the failures are counted, and
    # numpy's warnings about them would only clutter the log.
    warnings.simplefilter("ignore", RuntimeWarning)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("lib", "trace", "cold"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--plan")
    parser.add_argument("--probe", choices=("certificate", "epsilon"))
    args = parser.parse_args()
    return {"lib": serve, "trace": trace, "cold": cold}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
