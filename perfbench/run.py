"""recteacher benchmark: one command, two workloads, every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload teacher-latency --seed 1 --seconds 30 --trace 0

The harness generates a seeded corpus, drives the real CLI
(`recteacher.cli.main`) in-process against the offline oracle backend, checks
the outputs, and prints a summary followed by one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics; `--trace 1` installs the layer probes and reports the
per-layer metrics instead (see README.md).

Each workload is a closed loop: the CLI processes a fixed batch with
`--parallel 2`, and the next batch starts when the previous one is done.
Set-up and batch repeat for `--seconds`; timings are medians over repeats.
After the timed part, a child process under another hash seed repeats one
set-up and batch, and its artifact digests must equal this run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gencorpus import CorpusSpec, write_corpus  # noqa: E402
from stats import chain_depth, median, percentile  # noqa: E402

PARALLEL = 2
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_CACHE = "reference.jsonl"
TRACE_DIR = ROOT / ".perfbench_traces"
CHILD_TIMEOUT_S = 120
PHASES = ["plan", "user_profile", "historical_analysis", "recent_analysis",
          "interest_divergence", "reflection", "recommend"]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: CorpusSpec
    latency_s: float        # injected per backend send, in set-up and timed part
    batch: int              # instances per run-teacher batch
    on_demand: bool = False


# The teacher workloads share a small corpus whose histories of 3..45 items
# span up to four abstraction windows of 10.
_TEACHER_CORPUS = CorpusSpec(users=200, items=300, min_history=3, max_history=45,
                             cold_items=20)

WORKLOADS = {
    wl.name: wl for wl in (
        # run-teacher on a warm cache: gateway, teacher and abstraction set the
        # time and CF is idle, so a CF speed-up must show no change here.
        Workload("teacher-latency", _TEACHER_CORPUS, latency_s=0.010, batch=90),
        # run-teacher on an empty cache with on_demand_verbalize: the cache
        # takes writes beside reads and run-teacher drops to one worker.
        Workload("teacher-ondemand", _TEACHER_CORPUS, latency_s=0.010, batch=40,
                 on_demand=True),
    )
}


def load_program():
    """Import recteacher from ./src of the checkout, never from elsewhere."""
    package = ROOT / "src" / "recteacher"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a recteacher checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import recteacher

    if Path(recteacher.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported recteacher from {recteacher.__file__}, not {package}")
    import probes

    return probes


def digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@dataclass
class Batch:
    wall: float
    traced: bool
    window: tuple[float, float]
    send_range: tuple[int, int]      # sends made by run-teacher in this batch
    verified: int                    # sessions whose top-1 is the ground truth


@dataclass
class Bench:
    workload: Workload
    seed: int
    trace: bool
    work: Path
    probes: object
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    batches: list[Batch] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    last_filter: tuple[int, int] = (0, 0)
    teacher_sends: tuple[int, int] = (0, 0)
    setup_digests: dict[str, str] | None = None   # of set-up 0, compared with later ones
    batch_digests: dict[str, str] | None = None   # of batch 0, compared with later ones

    def __post_init__(self) -> None:
        self.mock = self.probes.MockLLM()
        self.mock_patches = self.mock.install()
        self.tracer = self.probes.Tracer(self.mock) if self.trace else None
        self.trace_patches = None

    # -- plumbing -----------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @contextlib.contextmanager
    def traced(self, on: bool):
        if on and self.tracer is not None:
            self.trace_patches = self.tracer.install()
        try:
            yield
        finally:
            if self.trace_patches is not None:
                self.trace_patches.restore()
                self.trace_patches = None

    def cli(self, label: str, *argv: str) -> bool:
        """Run one CLI command in-process; stdout is swallowed, failures counted."""
        import recteacher.cli

        main = recteacher.cli.main
        if self.trace_patches is not None:
            main = self.tracer.span(f"cli.{label}", main)
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], "--parallel", str(PARALLEL), *argv[1:]])
        except Exception as exc:  # a crash is a failed command, reported below
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.failed += 1
            self.problems.append(f"{label} failed: {code}")
            return False
        return True

    # -- stages ---------------------------------------------------------------

    def prepare(self, d: Path) -> bool:
        """ingest, build-graph, verbalize, make-instances for both scenarios.

        On-demand runs start from an empty cache: verbalize writes the
        reference each on-demand entry must match instead.
        """
        raw, c, graph = d / "raw", str(d / "corpus"), str(d / "graph.jsonl")
        cache = REFERENCE_CACHE if self.workload.on_demand else "cache.jsonl"
        ok = self.cli("ingest", "ingest", "--users", str(raw / "users.jsonl"),
                      "--items", str(raw / "items.jsonl"),
                      "--reviews", str(raw / "reviews.jsonl"), "--out", c)
        ok = ok and self.cli("build-graph", "build-graph", "--corpus", c, "--out", graph)
        ok = ok and self.cli("verbalize", "verbalize", "--backend", "mock", "--corpus", c,
                             "--graph", graph, "--out", str(d / cache))
        ok = ok and self.cli("make-instances.Classic", "make-instances", "--corpus", c,
                             "--scenario", "Classic", "--limit", str(self.workload.batch),
                             "--out", str(d / "instances.jsonl"))
        return ok and self.cli("make-instances.ColdStartItem", "make-instances", "--corpus", c,
                               "--scenario", "ColdStartItem", "--out", str(d / "cold.jsonl"))

    def run_teacher(self, d: Path) -> bool:
        """run-teacher on a set-up directory; logs its send range."""
        argv = ["run-teacher", "--backend", "mock", "--corpus", str(d / "corpus"),
                "--graph", str(d / "graph.jsonl"), "--cache", str(d / "cache.jsonl"),
                "--instances", str(d / "instances.jsonl"), "--out", str(d / "sessions.jsonl")]
        if self.workload.on_demand:
            argv += ["--config", str(d / "ondemand.ini")]
        first = len(self.mock.sends)
        try:
            return self.cli("run-teacher", *argv)
        finally:
            self.teacher_sends = (first, len(self.mock.sends))

    def finish(self, d: Path) -> bool:
        """filter, export-sft, score-rewards, bucket-rl, evaluate."""
        sessions, instances = str(d / "sessions.jsonl"), str(d / "instances.jsonl")
        ok = self.cli("filter", "filter", "--sessions", sessions, "--out", str(d / "kept.jsonl"))
        ok = ok and self.cli("export-sft", "export-sft", "--kept", str(d / "kept.jsonl"),
                             "--out", str(d / "sft.jsonl"))
        ok = ok and self.cli("score-rewards", "score-rewards", "--trajectories", sessions,
                             "--instances", instances, "--out", str(d / "rewards.jsonl"))
        ok = ok and self.cli("bucket-rl", "bucket-rl",
                             "--rollouts", str(d / "raw" / "rollouts.jsonl"),
                             "--out", str(d / "rl.jsonl"))
        return ok and self.cli("evaluate", "evaluate", "--sessions", sessions,
                               "--instances", instances, "--out", str(d / "report.json"))

    # -- correctness gate -----------------------------------------------------

    def check_sessions(self, d: Path) -> tuple[int, int]:
        """Phases and evidence of every session; returns (sessions, verified)."""
        import recteacher.teacher

        instances = read_jsonl(d / "instances.jsonl")
        records = read_jsonl(d / "sessions.jsonl")
        self.check(len(records) == len(instances),
                   f"{len(records)} sessions for {len(instances)} instances")
        verified = 0
        for record in records:
            phases = [phase["phase"] for phase in record["phases"]]
            self.check(phases == PHASES, f"session {record['id']} has phases {phases}")
            fallbacks = sum(event["result"] == recteacher.teacher.MISS_FALLBACK
                            for phase in record["phases"] for event in phase["tool_events"])
            self.check(fallbacks == 0, f"session {record['id']}: {fallbacks} cache-miss fallbacks")
            verified += record["final_ranking"][0] == record["ground_truth"]
        return len(records), verified

    def check_finish(self, d: Path, sessions: int) -> None:
        kept = len(read_jsonl(d / "kept.jsonl"))
        self.last_filter = (kept, sessions)
        self.check(kept == sessions, f"filter kept {kept} of {sessions}")
        self.check(len(read_jsonl(d / "sft.jsonl")) == kept, "export-sft count differs from kept")
        totals = {r["total"] for r in read_jsonl(d / "rewards.jsonl")}
        self.check(totals == {"2"}, f"reward totals {sorted(totals)}, expected only 2")
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))["overall"]
        self.check(report["per_k"]["1"]["value"] == 1.0 and report["n"] == sessions,
                   f"evaluate HR@1 {report['per_k']['1']['value']} over n={report['n']}")
        self.check(len(read_jsonl(d / "rl.jsonl")) == 500, "bucket-rl did not select 500")
        self.check(len(read_jsonl(d / "cold.jsonl")) > 0, "no ColdStartItem instances")

    # -- workload phases ------------------------------------------------------

    def setup(self, index: int) -> Path:
        """Reach the timed part once, in a fresh directory, and time it."""
        wl = self.workload
        d = self.work / f"setup{index}"
        start = time.perf_counter()
        write_corpus(wl.spec, self.seed, d / "raw")
        self.prepare(d)
        self.setup_times.append(time.perf_counter() - start)
        if wl.on_demand:
            (d / "ondemand.ini").write_text("[pipeline]\non_demand_verbalize = true\n",
                                            encoding="utf-8")
        return d

    def verify_batch(self, d: Path) -> tuple[int, int, dict[str, str]]:
        """Gate one batch's outputs; returns (sessions, verified, artifact digests)."""
        sessions, verified = self.check_sessions(d)
        found = digests(d)
        kept = {"sessions.jsonl": found["sessions.jsonl"]}
        if self.workload.on_demand:
            cache = (d / "cache.jsonl").read_text(encoding="utf-8").splitlines()
            users = {r["user"] for r in read_jsonl(d / "sessions.jsonl")}
            self.check(len(cache) == len(users),
                       f"on-demand cache has {len(cache)} entries for {len(users)} users")
            reference = set((d / REFERENCE_CACHE).read_text(encoding="utf-8").splitlines())
            self.check(all(line in reference for line in cache),
                       "on-demand evidence differs from the offline verbalize output")
            kept["cache.jsonl"] = found["cache.jsonl"]
        return sessions, verified, kept

    def measure(self, seconds: float) -> Path:
        """Set-up and timed batch, repeated until the next pair would overrun
        `seconds` (traced: at least two batches). A set-up precedes every
        batch, so the set-up samples spread over the run like the batches.
        Returns the last set-up directory, holding the last batch's output.
        """
        ready: Path | None = None
        loop_start = time.perf_counter()
        while True:
            index = len(self.batches)
            with self.traced(self.trace):
                new = self.setup(index)
            found = digests(new)
            if self.setup_digests is None:
                self.setup_digests = found
            self.check(found == self.setup_digests,
                       f"set-up {index} artifacts differ from set-up 0")
            if ready is not None:
                shutil.rmtree(ready)
            ready = new
            if self.problems:
                return ready
            traced = self.trace and index % 2 == 1
            with self.traced(traced):
                start = time.perf_counter()
                ok = self.run_teacher(ready)
                end = time.perf_counter()
            submitted = len(read_jsonl(ready / "instances.jsonl"))
            self.attempted += submitted
            sessions = verified = 0
            if ok:
                sessions, verified, found = self.verify_batch(ready)
                if self.batch_digests is None:
                    self.batch_digests = found
                self.check(found == self.batch_digests,
                           f"batch {index} artifacts differ from batch 0")
            self.failed += submitted - sessions
            self.batches.append(Batch(end - start, traced, (start, end), self.teacher_sends,
                                      verified))
            if not ok or self.problems:
                return ready
            elapsed = time.perf_counter() - loop_start
            step = median([b.wall for b in self.batches]) + median(self.setup_times)
            if elapsed + step > seconds and (not self.trace or len(self.batches) >= 2):
                return ready

    def tail(self, d: Path) -> None:
        """Commands the workload does not time, run once on its last batch."""
        if self.finish(d):
            self.check_finish(d, len(read_jsonl(d / "instances.jsonl")))
        if self.workload.on_demand and self.cli(
                "verbalize", "verbalize", "--backend", "mock", "--only-missing",
                "--corpus", str(d / "corpus"), "--graph", str(d / "graph.jsonl"),
                "--out", str(d / "cache.jsonl")):
            with (d / "graph.jsonl").open(encoding="utf-8") as handle:
                header = json.loads(handle.readline())
            keys = header["user_count"] + header["item_count"]
            entries = len(read_jsonl(d / "cache.jsonl"))
            self.check(entries == keys, f"filled cache has {entries} entries for {keys} keys")

    def check_other_process(self) -> None:
        """Repeat one set-up and batch in a child process under another hash
        seed, without injected latency; its artifact digests must equal this
        run's. Within one process the hash seed is fixed, so only a second
        process catches an output order that follows set or str hashing."""
        hash_seed = os.environ.get("PYTHONHASHSEED", "")
        env = dict(os.environ,
                   PYTHONHASHSEED=str(int(hash_seed) + 1) if hash_seed.isdigit() else "1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload.name,
                "--seed", str(self.seed), "--seconds", "0", "--digests"]
        try:
            child = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"digest child did not finish in {CHILD_TIMEOUT_S} s")
            return
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            self.problems.append(f"digest child exited with {child.returncode}")
            return
        other = json.loads(child.stdout.splitlines()[-1])
        self.check(other["setup"] == self.setup_digests,
                   "set-up artifacts differ from a second process with the same seed")
        self.check(other["batch"] == self.batch_digests,
                   "batch artifacts differ from a second process with the same seed")

    def run(self, seconds: float) -> None:
        self.mock.latency_s = self.workload.latency_s
        ready = self.measure(seconds)
        self.mock.latency_s = 0.0  # the untimed tail only checks outputs
        if not self.problems:
            with self.traced(True):
                self.tail(ready)
        if not self.problems:
            self.check_other_process()

    # -- metrics --------------------------------------------------------------

    def session_samples(self, traced: bool) -> tuple[list[float], list[int], list[int]]:
        """Per-session duration (s), sends and chain depth over batches of one kind."""
        durations, calls, depths = [], [], []
        for batch in self.batches:
            if batch.traced != traced:
                continue
            by_user: dict[str, list] = {}
            for send in self.mock.sends[batch.send_range[0]:batch.send_range[1]]:
                if send.user is not None:
                    by_user.setdefault(send.user, []).append(send)
            for sends in by_user.values():
                durations.append(max(s.end for s in sends) - min(s.start for s in sends))
                calls.append(len(sends))
                depths.append(chain_depth((s.start, s.end) for s in sends))
        return durations, calls, depths

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        batches = [b for b in self.batches if not b.traced]
        durations, calls, depths = self.session_samples(traced=False)
        n = len(durations)
        p50, _ = percentile(durations, 0.5)
        p90, beyond = percentile(durations, 0.9)
        print(f"# {len(batches)} batches of {', '.join(f'{b.wall:.3f}' for b in batches)} s; "
              f"{n} sessions, p90 has {beyond} samples beyond it", file=sys.stderr)
        return {
            "setup_s": (median(self.setup_times), "s"),
            "wall_s": (median([b.wall for b in batches]), "s"),
            "verified_per_s": (median([b.verified / b.wall for b in batches]), "1/s"),
            "session_p50_ms": (p50 * 1000, "ms"),
            "session_p90_ms": (p90 * 1000, "ms"),
            "calls_per_session": (sum(calls) / n, "calls"),
            "critical_path_calls": (sum(depths) / n, "calls"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        import layers

        result = layers.per_layer(self.tracer.spans, self.mock.sends, self.batches,
                                  len(self.session_samples(traced=True)[0]))
        kept, sessions = self.last_filter
        result["trajectory.kept_ratio"] = (kept / sessions if sessions else 0.0, "ratio")
        return dict(sorted(result.items()))

    def write_trace(self) -> Path:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{self.workload.name}-seed{self.seed}.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.tracer.spans:
                handle.write(json.dumps([span.id, span.name, span.start, span.end, span.parent,
                                         span.session, span.extra]) + "\n")
        return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="run one set-up and batch without injected latency and print "
                             "their artifact digests as JSON (the cross-process check)")
    args = parser.parse_args(argv)

    probes = load_program()
    # the CLI configures INFO logging on first use; keep stderr to warnings
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), work, probes)
    try:
        if args.digests:
            bench.measure(0)
        else:
            bench.run(args.seconds)
    finally:
        bench.mock_patches.restore()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    if args.digests:
        for problem in bench.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        if bench.problems or bench.failed:
            return 1
        print(json.dumps({"setup": bench.setup_digests, "batch": bench.batch_digests}))
        return 0
    correct = not bench.problems and bench.failed == 0 and bool(bench.batches)
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics: dict[str, tuple[float, str]] = {}
    if correct:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        if args.trace:
            print(f"# spans written to {bench.write_trace().relative_to(ROOT)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
