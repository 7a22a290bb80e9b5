"""The qtoric benchmark: one workload, checked outputs, metrics as JSON.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload batch-small --seed 1 --seconds 30 --trace 0

The run generates its states from the seed, runs the workload's CLI
invocations (``python -m qtoric`` with ``src`` on the path, one child process
at a time) and its library pass in a worker process, checks every output
against ``reference.py``, and prints one JSON line last::

    {"correct": true, "attempted": N, "failed": K, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over whole
rounds of the workload; with ``--trace 1`` a separate traced round gives the
per-layer ones. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import reference
import selftest
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

MIN_ROUNDS = 3
# Rounds of a run end by this time, whatever --seconds asks, so that a run
# ends within 180 s.
LAST_ROUND_END_S = 120.0
CHILD_TIMEOUT_S = 170.0
# Untraced and traced rounds of the workload in a traced run, each.
TRACE_PAIRS = 3

E2E_UNITS = {
    "setup_s": "s",
    "cli_states_per_s": "states/s",
    "lib_states_per_s": "states/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.read_us": "us",
    "cli.emit_us": "us",
    "states.parse_us": "us",
    "states.segre_embed_us": "us",
    "states.constructions_per_state": "count",
    "toric.certificate_cold_s": "s",
    "toric.certificate_cold_rss_mb": "MB",
    "toric.certificate_us": "us",
    "toric.relation_table_us": "us",
    "toric.relations_per_state": "count",
    "analyzer.analyze_us": "us",
    "analyzer.analyze_p99_us": "us",
    "analyzer.extract_us": "us",
    "analyzer.extract_useful_ratio": "ratio",
    "measures.concurrence_us": "us",
    "measures.three_tangle_us": "us",
    "measures.m_tangle_us": "us",
    "measures.tau4_identities_us": "us",
    "measures.tau4_epsilon_us": "us",
    "measures.epsilon_cold_s": "s",
    "moment.product_us": "us",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Plans: the CLI invocations of one round
# ---------------------------------------------------------------------------


def build_section(inputs: gen.Inputs, work: Path, phases: list[str]) -> dict:
    """Write the section's state files and list its CLI invocations."""
    directory = work / inputs.workload / "states"
    gen.write_files(inputs, directory)
    out_dir = work / inputs.workload / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    def path(i: int) -> str:
        return str(directory / inputs.cases[i].name)

    largest = inputs.largest_m
    if inputs.workload in gen.RELATION_WORKLOADS:
        calls = [("setup", ["segre", path(inputs.setup)], [inputs.setup])]
        calls += [("state", ["segre", path(i)], [i]) for i in inputs.cli]
        calls.append(("list", ["segre", "-m", str(largest), "--list"], []))
    else:
        calls = [
            ("setup", ["analyze", path(inputs.setup)], [inputs.setup]),
            ("batch", ["analyze", str(directory)], list(inputs.cli)),
        ]
    invocations = []
    for n, (role, argv, states) in enumerate(calls):
        invocations.append(
            {
                "role": role,
                "argv": [*argv, "--format", "json"],
                "states": states,
                "m": largest if role == "list" else inputs.cases[states[0]].m,
                "out": {p: str(out_dir / f"{n:03d}_{role}.{p}.json") for p in phases},
                "err": str(out_dir / f"{n:03d}_{role}.err"),
            }
        )
    lib_out = {p: str(out_dir / f"lib.{p}.json") for p in phases}
    return {
        "workload": inputs.workload,
        "lib_repeats": inputs.lib_repeats,
        "cli": invocations,
        "lib_out": lib_out,
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checker:
    """Expected values of a workload's states, and the checks of its outputs."""

    def __init__(self, inputs: gen.Inputs) -> None:
        self.inputs = inputs
        self.expected = {}
        for i in set(inputs.cli) | set(inputs.lib):
            case = inputs.cases[i]
            source = case if case.base is None else inputs.cases[case.base]
            self.expected[i] = reference.expected(source)
        self.errors: list[str] = []
        self.sample_report = None  # (expected, report) for the self-test
        self.sample_table = None  # (m, quads, residuals, psi)

    def fail(self, where: str, problems: list[str]) -> None:
        self.errors += [f"{self.inputs.workload}: {where}: {p}" for p in problems[:3]]

    def cli_output(self, invocation: dict, text: str) -> None:
        """Check the JSON printed by one CLI invocation."""
        where = " ".join(invocation["argv"][:2])
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            self.fail(where, [f"output is not JSON: {exc}"])
            return
        m = invocation["m"]
        if invocation["role"] == "list":
            self.fail(where, reference.check_segre_output(m, payload))
        elif invocation["argv"][0] == "segre":
            psi = self.expected[invocation["states"][0]].psi
            self.fail(where, reference.check_segre_output(m, payload, psi))
        elif invocation["role"] == "setup":
            self.fail(where, reference.check_report(self.expected[invocation["states"][0]], payload))
        else:
            self.batch(where, invocation["states"], payload)

    def batch(self, where: str, states: list[int], payload) -> None:
        by_name = {self.inputs.cases[i].name: i for i in states}
        if not isinstance(payload, list) or len(payload) != len(states):
            self.fail(where, [f"expected {len(states)} reports"])
            return
        seen = set()
        for record in payload:
            i = by_name.get(record.get("path")) if isinstance(record, dict) else None
            if i is None or i in seen:
                self.fail(where, [f"unexpected report path {str(record)[:60]}"])
                return
            seen.add(i)
            self.fail(record["path"], reference.check_report(self.expected[i], record))

    def lib_results(self, results: list[dict]) -> tuple[int, int]:
        """Check one library pass; return (completed, failed) operations."""
        lib = self.inputs.lib
        position = {i: k for k, i in enumerate(lib)}
        failed = 0
        for i, result in zip(lib, results):
            case = self.inputs.cases[i]
            where = f"library {case.name}"
            if "error" in result:
                failed += 1
                if case.kind != "scaled":
                    self.fail(where, [result["error"]])
            elif case.kind == "scaled":
                base = results[position[case.base]]
                self.fail(f"{where} at scale {case.scale:g}", reference.same_report(base, result))
            elif "relations" in result:
                exp = self.expected[i]
                quads, residuals = result["relations"], result["residuals"]
                problems = reference.check_table(case.m, quads, residuals, exp.psi)
                largest = result["max_residual"]
                if abs(largest - exp.max_residual) > reference.RESIDUAL_ATOL:
                    problems.append(f"max_residual {largest!r}, reference {exp.max_residual!r}")
                self.fail(where, problems)
                if self.sample_table is None and not problems:
                    self.sample_table = (case.m, quads, residuals, exp.psi)
            else:
                problems = reference.check_report(self.expected[i], result)
                self.fail(where, problems)
                if self.sample_report is None and not problems and result["measures"]:
                    self.sample_report = (self.expected[i], result)
        return len(results) - failed, failed

    def run_selftest(self) -> None:
        """The checks must reject mutated copies of this run's outputs."""
        self.errors += selftest.mutations_missed(self.sample_report, self.sample_table)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def worker_command(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def run_child(argv: list[str], log: Path) -> str:
    """Run a child to completion and return its standard output."""
    with open(log, "wb") as err:
        done = subprocess.run(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=err, timeout=CHILD_TIMEOUT_S, check=False,
        )
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:4]} exited {done.returncode}: {log.read_text()[-2000:]}")
    return done.stdout.decode()


class Helper:
    """A long-lived child that answers each line on its stdin with one line."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.log = log
        self.stderr = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.log.stem} stopped: {self.log.read_text()[-2000:]}")
        return line.strip()

    def ask(self, request: str) -> str:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


class Launcher(Helper):
    """Runs CLI invocations from a small process; see launcher.py."""

    def __init__(self, work: Path) -> None:
        super().__init__([sys.executable, str(BENCH / "launcher.py")], work / "launcher.err")

    def run(self, invocation: dict, phase: str) -> tuple[float, float, int]:
        """Run one CLI invocation; return its time at nominal speed, peak RSS in MB and exit code."""
        request = {
            "argv": [sys.executable, "-m", "qtoric", *invocation["argv"]],
            "out": invocation["out"][phase],
            "err": invocation["err"],
        }
        reply = json.loads(self.ask(json.dumps(request)))
        return reply["wall_s"] * reply["factor"], reply["rss_mb"], reply["code"]


class LibWorker(Helper):
    """The persistent library worker of a timed run; see worker.py."""

    def __init__(self, inputs: gen.Inputs, work: Path) -> None:
        argv = worker_command("lib", "--workload", inputs.workload, "--seed", str(inputs.seed))
        super().__init__(argv, work / "worker.err")
        if self.read() != "ready":
            raise RuntimeError("library worker did not start")

    def run_pass(self, out: str) -> dict:
        if self.ask(f"pass {out}") != "done":
            raise RuntimeError("library pass failed")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


# ---------------------------------------------------------------------------
# Timed run: end-to-end metrics
# ---------------------------------------------------------------------------


def check_cli(
    checker: Checker, invocation: dict, phase: str, code: int, err: str = ""
) -> tuple[int, int]:
    """Check one CLI invocation's output; return its (attempted, failed) operations."""
    ops = max(1, len(invocation["states"]))
    if code != 0:
        checker.fail(" ".join(invocation["argv"][:2]), [f"exit code {code}: {err}"])
        return ops, ops
    checker.cli_output(invocation, Path(invocation["out"][phase]).read_text())
    return ops, 0


def check_lib(checker: Checker, lib: dict) -> tuple[int, int]:
    """Check the results of a round's library passes; return (completed, failed)."""
    completed = failed = 0
    for results in lib["results"]:
        done, bad = checker.lib_results(results)
        completed += done
        failed += bad
    return completed, failed


def timed_round(section: dict, checker: Checker, launcher: Launcher, worker: LibWorker) -> dict:
    attempted = failed = states_done = 0
    cli_time = peak_rss = 0.0
    setup_s = None
    for invocation in section["cli"]:
        wall, rss, code = launcher.run(invocation, "timed")
        err = Path(invocation["err"]).read_text()[-500:] if code != 0 else ""
        ops, bad = check_cli(checker, invocation, "timed", code, err)
        attempted += ops
        failed += bad
        states_done += 0 if bad else len(invocation["states"])
        cli_time += wall
        peak_rss = max(peak_rss, rss)
        if invocation["role"] == "setup":
            setup_s = wall
    lib = worker.run_pass(section["lib_out"]["timed"])
    completed, bad = check_lib(checker, lib)
    return {
        "attempted": attempted + completed + bad,
        "failed": failed + bad,
        "setup_s": setup_s,
        "cli_states_per_s": states_done / cli_time,
        "lib_states_per_s": completed / sum(lib["seconds"]),
        "peak_rss_mb": peak_rss,
    }


def timed_run(inputs: gen.Inputs, work: Path, seconds: float) -> dict:
    section = build_section(inputs, work, ["timed"])
    checker = Checker(inputs)
    launcher = Launcher(work)
    worker = None
    rounds = []
    try:
        worker = LibWorker(inputs, work)
        start = time.perf_counter()
        durations = []
        while len(rounds) < MIN_ROUNDS or (
            # Start another round only if a typical round ends within the run.
            time.perf_counter() - start + statistics.median(durations) <= min(seconds, LAST_ROUND_END_S)
        ):
            begun = time.perf_counter()
            rounds.append(timed_round(section, checker, launcher, worker))
            durations.append(time.perf_counter() - begun)
            if len(rounds) == 1:
                checker.run_selftest()
    finally:
        launcher.close()
        if worker is not None:
            worker.close()
    metrics = {name: statistics.median(r[name] for r in rounds) for name in E2E_UNITS}
    return result(checker, rounds, metrics, E2E_UNITS)


def result(checker: Checker, rounds: list[dict], metrics: dict, units: dict) -> dict:
    for error in checker.errors[:20]:
        print(error, file=sys.stderr)
    return {
        "correct": not checker.errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qtoric.cli; "
    "print(time.perf_counter() - t)"
)


def cold_probes(inputs: gen.Inputs, work: Path) -> dict[str, float]:
    """First-call costs, each measured in fresh interpreters; medians."""
    log = work / "cold.err"

    def probe(kind: str, workload: str) -> dict:
        argv = ["cold", "--probe", kind, "--workload", workload, "--seed", str(inputs.seed)]
        return json.loads(run_child(worker_command(*argv), log))

    imports = [float(run_child([sys.executable, "-c", IMPORT_PROBE], log)) for _ in range(5)]
    # A cold certificate at m = 9 takes seconds; smaller ones are repeated.
    certs = [probe("certificate", inputs.workload) for _ in range(1 if inputs.largest_m > 8 else 3)]
    eps = [probe("epsilon", "probe-analyze") for _ in range(3)]
    return {
        "cli.import_s": statistics.median(imports),
        "toric.certificate_cold_s": statistics.median(c["seconds"] for c in certs),
        "toric.certificate_cold_rss_mb": statistics.median(c["rss_mb"] for c in certs),
        "measures.epsilon_cold_s": statistics.median(e["seconds"] for e in eps),
    }


def traced_run(inputs: gen.Inputs, work: Path) -> dict:
    rounds = [f"{side}.{k}" for k in range(TRACE_PAIRS) for side in ("untraced", "traced")]
    sections = [build_section(inputs, work, ["warmup", *rounds])]
    probes = [gen.generate(name, inputs.seed) for name in gen.PROBES]
    sections += [build_section(p, work, ["warmup", "probe"]) for p in probes]
    plan = {
        "seed": inputs.seed,
        "sections": sections,
        "workload_rounds": rounds,
        "summary_out": str(work / "trace_summary.json"),
        "spans_out": str(work / "trace_spans.json"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    run_child(worker_command("trace", "--plan", str(plan_path)), work / "trace.err")
    summary = json.loads(Path(plan["summary_out"]).read_text())
    spans = json.loads(Path(plan["spans_out"]).read_text())

    checker = Checker(inputs)
    counts = [check_round(sections[0], checker, phase, summary["codes"][phase]) for phase in rounds]
    for section, p in zip(sections[1:], probes):
        probe_checker = Checker(p)
        check_round(section, probe_checker, "probe", summary["codes"][p.workload])
        checker.errors += probe_checker.errors
    checker.run_selftest()

    metrics = tracer.layer_metrics(spans)
    metrics.update(cold_probes(inputs, work))
    walls = summary["walls"]
    metrics["trace.overhead_s"] = statistics.median(
        walls[p] for p in rounds if p.startswith("traced")
    ) - statistics.median(walls[p] for p in rounds if p.startswith("untraced"))
    return result(checker, counts, metrics, LAYER_UNITS)


def check_round(section: dict, checker: Checker, phase: str, codes: list[int]) -> dict:
    """Check the outputs one in-process round left; count its operations."""
    attempted = failed = 0
    for invocation, code in zip(section["cli"], codes):
        ops, bad = check_cli(checker, invocation, phase, code)
        attempted += ops
        failed += bad
    completed, bad = check_lib(checker, json.loads(Path(section["lib_out"][phase]).read_text()))
    return {"attempted": attempted + completed + bad, "failed": failed + bad}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qtoric" / "__init__.py").is_file():
        print(f"qtoric sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A run stopped by SIGTERM unwinds like one stopped by an exception, so
    # that its child processes are stopped and its scratch files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        inputs = gen.generate(args.workload, args.seed)
        if args.trace:
            outcome = traced_run(inputs, work)
        else:
            outcome = timed_run(inputs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
