"""quallm benchmark: seeded synthetic studies driven through the quallm CLI.

    python3 bench/run.py --workload mock_study --seed 1 --seconds 30 --trace 0

Run from the root of a quallm checkout. Workload iterations repeat
until ``--seconds`` have passed, at least ``MIN_ITERATIONS`` times.
Before each one, set-up builds the workload's inputs from the seed
anew (``setup_s`` is the median of these set-ups, which are spread
over the run like the iterations and not counted in ``--seconds``).
Each iteration copies the newest inputs, runs the user's command
sequence in a fresh interpreter (``child.py``), simulates a crash by
tearing the tail off every stage checkpoint, resumes in another fresh
interpreter, and checks the outputs. With ``--trace 0`` the last stdout line holds
the end-to-end metrics (medians over iterations); with ``--trace 1``
iterations alternate untraced and traced and the line holds the
per-layer metrics of the traced ones plus the tracing overhead. The
exit code is 1 when a correctness check fails and 2 when the checkout
has no quallm sources. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import study as study_mod  # noqa: E402
import stub as stub_mod  # noqa: E402
import tracing  # noqa: E402

WORKERS = len(os.sched_getaffinity(0))
MIN_ITERATIONS = 5
IMPORT_REPEATS = 10
IMPORT_PER_ITERATION = 1
TEAR_SHARE = 0.25
CHILD_TIMEOUT_S = 150
STAGES = ("generate", "classify", "aggregate", "prevalence")
STAGE_COMMANDS = set(STAGES) | {"run-all"}

MOCK_SIZE = study_mod.StudySize(threads=3000, classification_chunk=200, prevalence_chunk=200,
                                reask_share=0.15, throttle_share=0.05)
LIVE_SIZE = study_mod.StudySize(threads=500, classification_chunk=60, aggregation_chunk=100,
                                prevalence_chunk=60)
EVAL_SIZE = study_mod.StudySize(threads=2000, diverse_concerns=True, reask_share=0.05,
                                throttle_share=0.05)
EVAL_INPUTS = study_mod.EvalSize(factuality_trials=2500, completeness_trials=3000,
                                 accuracy_items=2000, fleiss_items=2000)
MOCK_BACKOFF_S = 0.001
LIVE_BACKOFF_S = 0.05
EVAL_METRICS = "factuality,completeness,accuracy,fleiss,aggregation"

COLD_COMMANDS = [
    ["ingest", "--config", "run.cfg", "--submissions", "submissions.ndjson",
     "--comments", "comments.ndjson"],
    *[[stage, "--config", "run.cfg"] for stage in STAGES],
    ["report", "--config", "run.cfg"],
    ["cost", "--config", "run.cfg"],
]
RESUME_COMMANDS = [["run-all", "--config", "run.cfg"], ["report", "--config", "run.cfg"],
                   ["cost", "--config", "run.cfg"]]
EVAL_COMMAND = [
    "eval", "--config", "run.cfg", "--metrics", EVAL_METRICS,
    "--factuality-judgments", "factuality.csv", "--completeness-judgments", "completeness.csv",
    "--gold", "gold.csv", "--predicted", "predicted.csv", "--labels", "labels.csv",
    "--chance-p", "0.2", "--min-topic-size", "5",
]

END_TO_END_UNITS = {
    "wall_s": "s", "resume_s": "s", "calls_per_s": "1/s", "billed_tokens": "tokens",
    "peak_rss_mb": "MB", "setup_s": "s",
}
_UNITS_RE = re.compile(r"^\[(\w+)\] units done: \d+/\d+ \(executed (\d+),", re.MULTILINE)
_FAILED_RE = re.compile(r"^\[(\w+)\] failed: (\d+)", re.MULTILINE)
_COST_RE = re.compile(r"\| Total (Input|Output) Tokens \| ([\d,]+) \|")


class CheckFailed(Exception):
    """An output of quallm is not what the planted study implies."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    wall_s: float
    commands: list[dict]
    peak_rss_kb: int
    spans: list[dict]

    def stage_seconds(self) -> float:
        return sum(c["seconds"] for c in self.commands if c["argv"][0] in STAGE_COMMANDS)

    def units(self) -> tuple[dict[str, int], int]:
        """(stage -> units executed, units failed) from the CLI's stage lines."""
        executed: dict[str, int] = Counter()
        failed = 0
        for command in self.commands:
            for stage, ran in _UNITS_RE.findall(command["stdout"]):
                executed[stage] += int(ran)
            failed += sum(int(n) for _, n in _FAILED_RE.findall(command["stdout"]))
        return executed, failed


def run_phase(cwd: Path, commands: list[list[str]], trace: bool, trace_id: str,
              phase: int = 0) -> Phase:
    """Run CLI commands in a fresh interpreter; wall time includes its start-up.
    Span ids of phase k start at k * 10**9 + 1, unique within the trace."""
    job = cwd / f".job-{time.monotonic_ns()}.json"
    out = job.with_suffix(".out.json")
    job.write_text(json.dumps({"src": str(SRC), "commands": commands, "trace": trace,
                               "trace_id": trace_id, "first_span_id": phase * 10**9 + 1,
                               "out": str(out)}), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["QUALLM_API_KEY"] = "benchmark-key"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(job)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    check(proc.returncode == 0, f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    job.unlink()
    out.unlink()
    for command in result["commands"]:
        check(command["code"] == 0,
              f"quallm {' '.join(command['argv'][:1])} exited {command['code']}:"
              f" {command['stdout'][-1000:]} {proc.stderr[-1000:]}")
    return Phase(wall, result["commands"], result["peak_rss_kb"], result["spans"])


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed at the moment,
    printed with the context so runs on a busy machine can be recognised."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def fsync_tree(root: Path) -> None:
    """Flush every file under *root*, so its writeback does not land in a timed phase."""
    for path in root.rglob("*"):
        if path.is_file():
            with path.open("rb") as fh:
                os.fsync(fh.fileno())


def measure_import_s(repeats: int) -> list[float]:
    """Seconds to ``import quallm.cli`` in each of *repeats* fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
            " import quallm.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times


class Stub:
    """The live-shaped backend, in a process of its own."""

    def __init__(self, seed: int, log_path: Path):
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(seed),
             "--max-connections", str(WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, payload=None) -> dict:
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(self.base + path, data=data,
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def reset(self, seed: int) -> None:
        self._call("/reset", {"seed": seed})

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.stdin.close()  # the stub shuts down at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# Run-directory inspection
# ---------------------------------------------------------------------------


def log_totals(run_dir: Path) -> tuple[int, int, int]:
    """(log lines, ok lines, tokens on ok lines) of llm_log.ndjson."""
    path = run_dir / "llm_log.ndjson"
    lines = ok = tokens = 0
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            lines += 1
            if record["outcome"] == "ok":
                ok += 1
                tokens += record["input_tokens"] + record["output_tokens"]
    return lines, ok, tokens


def output_hashes(run_dir: Path) -> dict[str, str]:
    """Digest of every stage and report output (not logs, checkpoints or cost)."""
    names = ["groups.ndjson", "concerns.ndjson", "theme_assignments.ndjson",
             "subtheme_assignments.ndjson", "report.md", "distribution.csv"]
    paths = [run_dir / n for n in names]
    paths += sorted(run_dir.glob("subthemes_*.json")) + sorted(run_dir.glob("theme_*.csv"))
    paths += sorted((run_dir / "summaries").glob("*.json"))
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.exists()}


def cost_reported(run_dir: Path) -> int:
    text = (run_dir / "cost.md").read_text(encoding="utf-8")
    return sum(int(n.replace(",", "")) for _, n in _COST_RE.findall(text))


def check_planted(run_dir: Path, study: study_mod.Study) -> None:
    themes = Counter(json.loads(line)["code"] for line in
                     (run_dir / "theme_assignments.ndjson").read_text().splitlines())
    check(themes == Counter({k: v for k, v in study.theme_counts.items() if v}),
          f"theme counts {dict(themes)} != planted {study.theme_counts}")
    subs: dict[str, Counter] = {}
    for line in (run_dir / "subtheme_assignments.ndjson").read_text().splitlines():
        record = json.loads(line)
        subs.setdefault(record["theme"], Counter())[record["code"]] += 1
    planted = {t: Counter({k: v for k, v in c.items() if v}) for t, c in study.subtheme_counts.items()}
    check(subs == planted, f"sub-theme counts {subs} != planted {planted}")
    for stage in STAGES:
        summary = json.loads((run_dir / "summaries" / f"{stage}.json").read_text())
        check(summary["failed"] == 0, f"{stage}: {summary['failed']} units failed")


def tear_checkpoints(run_dir: Path) -> dict[str, list[str]]:
    """Drop the tail of every stage checkpoint, leaving a half-written last
    line as a crash mid-append would; returns the dropped unit keys."""
    dropped = {}
    for stage in STAGES:
        path = run_dir / "checkpoints" / f"{stage}.ndjson"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        keep = len(lines) - max(1, round(len(lines) * TEAR_SHARE))
        dropped[stage] = [json.loads(line)["key"] for line in lines[keep:]]
        torn = lines[keep][: len(lines[keep]) // 2]
        path.write_text("".join(lines[:keep]) + torn, encoding="utf-8")
    return dropped


def check_resumed(run_dir: Path, study: study_mod.Study, dropped: dict[str, list[str]],
                  phase: Phase, calls_made: int, before: dict[str, str]) -> None:
    executed, _ = phase.units()
    for stage in STAGES:
        check(executed[stage] == len(dropped[stage]),
              f"resume executed {executed[stage]} {stage} units, {len(dropped[stage])} were dropped")
        lines = (run_dir / "checkpoints" / f"{stage}.ndjson").read_text().splitlines()
        appended = sorted(json.loads(line)["key"] for line in lines[-len(dropped[stage]):])
        check(appended == sorted(dropped[stage]), f"{stage}: resume re-ran other units")
    expected = sum(study.unit_calls[s][k] for s, keys in dropped.items() for k in keys)
    check(calls_made == expected, f"resume made {calls_made} backend calls, expected {expected}")
    check(output_hashes(run_dir) == before, "resumed outputs differ from the uninterrupted run")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    wall_s: float
    resume_s: float
    calls: int
    stage_s: float
    billed_tokens: int
    peak_rss_mb: float
    unreported_tokens: int
    units: int
    failed: int
    throttle_efficiency: float = 0.0
    spans: list[dict] = field(default_factory=list)


class Workload:
    name = ""
    size: study_mod.StudySize

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.study: study_mod.Study | None = None
        self.pristine: Path | None = None

    def setup(self, where: Path) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def cold(self, it_dir: Path, trace: bool, trace_id: str) -> tuple[Phase, int, int]:
        """Run and check the timed commands; returns (phase, units attempted, units failed)."""
        raise NotImplementedError

    def iteration(self, index: int, trace: bool) -> Iteration:
        it_dir = self.work / f"it{index}"
        shutil.copytree(self.pristine, it_dir)
        fsync_tree(it_dir)
        run_dir = it_dir / "run"
        trace_id = f"{self.name}-{self.seed}-{os.getpid()}-{index}"
        billed_before = self.billed(run_dir)
        _, ok0, _ = log_totals(run_dir)
        cold, attempted, cold_failed = self.cold(it_dir, trace, trace_id)
        lines1, _, _ = log_totals(run_dir)
        before = output_hashes(run_dir)

        dropped = tear_checkpoints(run_dir)
        resume = run_phase(it_dir, RESUME_COMMANDS, trace, trace_id, phase=1)
        lines2, ok2, _ = log_totals(run_dir)
        check_resumed(run_dir, self.study, dropped, resume, lines2 - lines1, before)
        resume_units, resume_failed = resume.units()
        if index == 0:
            again = run_phase(it_dir, [["run-all", "--config", "run.cfg"]], False, trace_id)
            check(log_totals(run_dir)[0] == lines2 and sum(again.units()[0].values()) == 0,
                  "re-invoking finished stages made backend calls")

        billed = self.billed(run_dir)
        self.check_billing(run_dir, billed)
        result = Iteration(
            wall_s=cold.wall_s, resume_s=resume.wall_s, calls=ok2 - ok0,
            stage_s=cold.stage_seconds() + resume.stage_seconds(),
            billed_tokens=billed - billed_before, peak_rss_mb=cold.peak_rss_kb / 1024,
            unreported_tokens=billed - cost_reported(run_dir),
            units=attempted + sum(resume_units.values()), failed=cold_failed + resume_failed,
            spans=cold.spans + resume.spans,
        )
        shutil.rmtree(it_dir)
        return result

    def billed(self, run_dir: Path) -> int:
        """Tokens billed so far for the run directory: the ok lines of its log."""
        return log_totals(run_dir)[2]

    def check_billing(self, run_dir: Path, billed: int) -> None:
        pass

    def describe(self) -> dict:
        return {"study": self.study.counts, "size": self.size.__dict__}


class PipelineWorkload(Workload):
    """Cold run: ingest, the four stages, report, cost."""

    backend = "mock"
    backoff = MOCK_BACKOFF_S

    def endpoint(self) -> str:
        return ""

    def setup(self, where: Path) -> None:
        self.study = study_mod.build_study(where, self.seed, self.size, self.backend,
                                           endpoint=self.endpoint(), concurrency=WORKERS,
                                           backoff_base=self.backoff)
        self.pristine = where

    def cold(self, it_dir, trace, trace_id):
        phase = run_phase(it_dir, COLD_COMMANDS, trace, trace_id)
        check_planted(it_dir / "run", self.study)
        executed, failed = phase.units()
        return phase, sum(executed.values()), failed


class MockStudy(PipelineWorkload):
    name = "mock_study"
    size = MOCK_SIZE


class LiveThrottled(PipelineWorkload):
    name = "live_throttled"
    size = LIVE_SIZE
    backend = "live"
    backoff = LIVE_BACKOFF_S
    stub: Stub | None = None

    def endpoint(self) -> str:
        return f"{self.stub.base}/v1/chat/completions"

    def setup(self, where: Path) -> None:
        self.stub = Stub(self.seed, where.parent / f"{where.name}-stub.log")
        super().setup(where)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def iteration(self, index, trace):
        self.stub.reset(self.seed * 1000 + index)
        result = super().iteration(index, trace)
        ideal_rate = min(WORKERS * 1000 / stub_mod.LATENCY_MS, stub_mod.RATE)
        result.throttle_efficiency = result.calls / ideal_rate / result.stage_s
        return result

    def billed(self, run_dir: Path) -> int:
        """Tokens the stub billed since its reset at the start of the iteration."""
        stats = self.stub.stats()
        return stats["billed_input_tokens"] + stats["billed_output_tokens"]

    def check_billing(self, run_dir: Path, billed: int) -> None:
        logged = log_totals(run_dir)[2]
        check(billed == logged, f"stub billed {billed} tokens, the run log has {logged}")

    def describe(self) -> dict:
        shape = {"latency_ms": stub_mod.LATENCY_MS, "rate": stub_mod.RATE,
                 "burst": stub_mod.BURST, "error_share": stub_mod.ERROR_SHARE}
        return {**super().describe(), "stub": {**shape, "max_connections": WORKERS,
                                               "backoff_base_s": LIVE_BACKOFF_S}}


class EvalHarness(Workload):
    """Cold run: ``quallm eval`` on a run directory finished in set-up."""

    name = "eval_harness"
    size = EVAL_SIZE

    def setup(self, where: Path) -> None:
        self.study = study_mod.build_study(where, self.seed, self.size, "mock",
                                           concurrency=WORKERS, backoff_base=MOCK_BACKOFF_S)
        self.expected = study_mod.write_eval_inputs(where, self.seed, EVAL_INPUTS)
        run_phase(where, COLD_COMMANDS, False, "setup")
        check_planted(where / "run", self.study)
        self.pristine = where

    def cold(self, it_dir, trace, trace_id):
        phase = run_phase(it_dir, [EVAL_COMMAND], trace, trace_id)
        report = json.loads((it_dir / "run" / "metrics.json").read_text(encoding="utf-8"))
        found = {m["name"]: m for m in report["metrics"]}
        wanted = ["factuality", "completeness", "accuracy", "fleiss_kappa", "distinctness_mean",
                  "distinctness_pooled", "coverage_1_mean", "coverage_1_pooled",
                  "coverage_2_mean", "coverage_2_pooled"]
        missing = [name for name in wanted if name not in found]
        check(not missing, f"metrics.json lacks {missing}")
        for name in ("factuality", "completeness", "accuracy"):
            check(found[name]["value"] == self.expected[name],
                  f"{name} = {found[name]['value']}, expected {self.expected[name]}")
            check(found[name]["significant_at_0.05"] is True, f"{name} not significant")
        kappa = fleiss_reference(it_dir / "labels.csv")
        check(abs(found["fleiss_kappa"]["value"] - kappa) < 1e-9,
              f"fleiss_kappa = {found['fleiss_kappa']['value']}, expected {kappa}")
        return phase, len(EVAL_METRICS.split(",")), 0

    def describe(self) -> dict:
        return {**super().describe(), "eval": EVAL_INPUTS.__dict__}


def fleiss_reference(labels_csv: Path) -> float:
    """Fleiss' kappa straight from its definition, for checking quallm's."""
    items: dict[str, list[str]] = {}
    for line in labels_csv.read_text(encoding="utf-8").splitlines()[1:]:
        item, _, label = line.split(",")
        items.setdefault(item, []).append(label)
    rows = list(items.values())
    r = len(rows[0])
    totals: Counter = Counter()
    agreement = 0.0
    for row in rows:
        counts = Counter(row)
        totals.update(counts)
        agreement += (sum(c * c for c in counts.values()) - r) / (r * (r - 1))
    p_bar = agreement / len(rows)
    pe_bar = sum((c / (len(rows) * r)) ** 2 for c in totals.values())
    return (p_bar - pe_bar) / (1 - pe_bar)


WORKLOADS = {w.name: w for w in (MockStudy, LiveThrottled, EvalHarness)}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def end_to_end(iterations: list[Iteration], setup_s: float) -> dict[str, float]:
    def med(values) -> float:
        return statistics.median(values)

    return {
        "wall_s": med(it.wall_s for it in iterations),
        "resume_s": med(it.resume_s for it in iterations),
        "calls_per_s": med(it.calls / it.stage_s for it in iterations),
        "billed_tokens": med(it.billed_tokens for it in iterations),
        "peak_rss_mb": med(it.peak_rss_mb for it in iterations),
        "setup_s": setup_s,
    }


def per_layer(traced: list[Iteration], untraced: list[Iteration],
              import_times: list[float]) -> dict[str, float]:
    layers = [tracing.layer_metrics(it.spans, WORKERS) for it in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["cli.cost_unreported_tokens"] = statistics.median(it.unreported_tokens for it in traced)
    out["gateway.throttle_efficiency"] = statistics.median(
        it.throttle_efficiency for it in traced)
    out["cli.import_s"] = min(import_times)
    out["trace.overhead_s"] = (statistics.median(it.wall_s for it in traced)
                               - statistics.median(it.wall_s for it in untraced))
    return {name: out[name] for name in tracing.UNITS}


def run(args: argparse.Namespace) -> int:
    workload: Workload = WORKLOADS[args.workload](
        args.seed, ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}")
    trace = bool(args.trace)
    iterations: list[Iteration] = []
    traced: list[Iteration] = []
    try:
        # Byte-compile once so no measured process pays for it.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import quallm.cli", str(SRC)], check=True, timeout=120)
        setups: list[float] = []

        def set_up() -> None:
            """Time one set-up; the newest serves the iterations (and its stub)."""
            workload.close()
            previous = workload.pristine
            where = workload.work / f"setup{len(setups)}"
            start = time.perf_counter()
            workload.setup(where)
            setups.append(time.perf_counter() - start)
            fsync_tree(where)
            if previous is not None:
                shutil.rmtree(previous)

        # The import is fixed work that other load on the machine only ever
        # slows, so cli.import_s is the fastest of samples spread over the run.
        import_times = measure_import_s(IMPORT_REPEATS) if trace else []

        spent = 0.0
        index = 0
        reference = []
        while True:
            set_up()
            start = time.perf_counter()
            reference.append(reference_loop_s())
            traced_now = trace and index % 2 == 1
            result = workload.iteration(index, traced_now)
            (traced if traced_now else iterations).append(result)
            if trace:
                import_times += measure_import_s(IMPORT_PER_ITERATION)
            index += 1
            spent += time.perf_counter() - start
            if spent >= args.seconds and index >= MIN_ITERATIONS and (traced or not trace):
                break
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        every = iterations + traced
        print(json.dumps({"correct": False, "attempted": max(1, sum(i.units for i in every)),
                          "failed": sum(i.failed for i in every), "metrics": {}}))
        return 1
    finally:
        workload.close()
        shutil.rmtree(workload.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            workload.work.parent.rmdir()  # only when no other run is using it

    every = iterations + traced
    if trace:
        values = per_layer(traced, iterations, import_times)
        units = tracing.UNITS
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.ndjson"
        with trace_file.open("w", encoding="utf-8") as fh:
            for it in traced:
                for span in it.spans:
                    fh.write(json.dumps(span) + "\n")
        print(f"spans: {trace_file.relative_to(ROOT)}")
    else:
        values = end_to_end(iterations, statistics.median(setups))
        units = END_TO_END_UNITS
    context = {
        "workload": args.workload, "seed": args.seed, "python": sys.version.split()[0],
        "machine": os.uname().machine, "nproc": WORKERS, "concurrency": WORKERS,
        "iterations": len(iterations), "traced_iterations": len(traced),
        "reference_loop_s": round(statistics.median(reference), 4),
        "iteration_wall_s": [round(it.wall_s, 4) for it in iterations],
        "iteration_resume_s": [round(it.resume_s, 4) for it in iterations],
        **workload.describe(),
    }
    print(json.dumps(context, sort_keys=True))
    for name, value in values.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(it.units for it in every),
        "failed": sum(it.failed for it in every),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quallm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the clean-up in run() stops the stub.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "quallm" / "__init__.py").is_file():
        print(f"error: no quallm sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
