"""Seeded benchmark of the enclosures package.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one caller, a closed loop: the
next operation starts when the previous one has returned.  The loop makes
whole passes over the workload's inputs until `--seconds` have passed and
the workload's sample floor is reached.  Every verdict is checked against
a reference answer computed by perfbench/gen.py, never by the package.
Operation and set-up times are scaled to a reference processor speed
measured by a calibration loop next to each operation (see CAL_REF_NS).

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics from a
traced run (perfbench/tracing.py).  Each run also writes
perfbench/results/<workload>-seed<n>-trace<t>.json with machine details,
failures by reason and, when traced, the recorded spans.

Workloads (see BENCHMARK.json for why each exists):
    suite     small pairs: families, affine fragment, measurement-free
    products  t0*...*t(k-1) over [1,b] against exact(1); grid sampling
    wide      100/300-term affine sums, depth-300 parentheses, and probes
              that currently die with RecursionError
    cli       `python -m enclosures` subprocess calls
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402

LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
BEYOND = 10
DOCUMENTED_EXIT = (0, 2, 3, 4)
# Set-up is sampled in fresh processes, half before the timed loop and half
# after it, so the median spans two moments of the host's speed drift.
SETUP_SAMPLES = 20
IMPORT_SAMPLES = 5

# Each workload has a sample floor; its tail percentile is the highest one
# that leaves BEYOND samples above it at the floor.  A fixed percentile
# keeps the tail comparable between commits of different throughput; the
# loop runs on past `--seconds` until the floor is reached.
FLOORS = {"suite": 1_000, "products": 100, "wide": 100, "cli": 100}

# The processor's speed on a shared host swings by up to 2x within seconds
# (measured: a fixed loop took 0.84 to 1.67 ms over one minute).  So every
# timed operation sits between two runs of a fixed calibration loop, and its
# wall time is divided by their mean and multiplied by CAL_REF_NS: times read
# as if the loop took 0.6 ms, about its time on an idle core of a 2-vCPU
# Intel Xeon VM.  Raw wall times are kept in the result file.  The loop
# creates small objects and formats strings as the package does: over 90 s
# of `suite` passes, the pass time over the loop's time varied by 3.5-4.4%
# (coefficient of variation) with such a loop, and by 4.8-7.6% with a loop
# of integer arithmetic and lookups only.
CAL_ROUNDS = 700
CAL_REF_NS = 600_000


class _CalPoint:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibrate() -> int:
    """Wall time (ns) of a fixed loop of object creation, attribute and dict
    reads and string formatting.  The collector is off while it runs, and
    every object it creates dies at once, so the loop neither triggers nor
    absorbs garbage collections of the program."""
    enabled = gc.isenabled()
    gc.disable()
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(CAL_ROUNDS):
        point = _CalPoint(i, {"x": i, "y": (i, -i)})
        acc = (acc + point.b["y"][0] + len(f"{i}:{point.a}")) & 1023
    dt = time.perf_counter_ns() - t0
    if enabled:
        gc.enable()
    return dt


def tail_percentile(n: int) -> float | None:
    """Highest LADDER percentile with at least BEYOND of n samples above it."""
    ok = [p for p in LADDER if n * (100.0 - p) / 100.0 >= BEYOND - 1e-9]
    return max(ok) if ok else None


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def dig(payload, path: str):
    """Value at a dotted path in nested dicts, or None."""
    for key in path.split("."):
        if not isinstance(payload, dict) or key not in payload:
            return None
        payload = payload[key]
    return payload


def judge(classes: dict, fields: dict, payload, error: str | None = None) -> str | None:
    """Why an operation failed, or None when it succeeded.

    An undetermined class is not a failure (it lowers decided_share); a
    decided class that differs from the reference is.
    """
    if error is not None:
        return error
    for path, want in classes.items():
        got = dig(payload, path)
        if got != gen.UNDETERMINED and got != want:
            return "wrong-class"
    for path, want in fields.items():
        if dig(payload, path) != want:
            return "audit-false" if path == "audit" else "wrong-output"
    return None


def decided(classes: dict, payload) -> bool | None:
    """Whether every class the operation reports is decided; None when the
    operation reports no class."""
    if not classes:
        return None
    return all(dig(payload, p) not in (None, gen.UNDETERMINED) for p in classes)


# Exit 3 means "undetermined" for the commands that classify their input.
_OWN_CLASS = {"classify": "classification.class", "demo": "computed_class"}


def exit_error(command: str, code: int, payload) -> str | None:
    if code not in DOCUMENTED_EXIT:
        return f"undocumented-exit-{code}"
    own = _OWN_CLASS.get(command)
    want = 3 if own is not None and dig(payload, own) == gen.UNDETERMINED else 0
    return None if code == want else f"unexpected-exit-{code}"


# --- set-up -------------------------------------------------------------------


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import enclosures

    where = Path(enclosures.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"enclosures imported from {where}, not from {SRC}")
    return enclosures


def build(workload: str, seed: int, work: Path | None):
    """The workload's inputs; cli input files are written into `work`."""
    if workload == "cli":
        calls = gen.cli(seed)
        work.mkdir(parents=True, exist_ok=True)
        for call in calls:
            for name, text in call.files.items():
                (work / name).write_text(text, encoding="utf-8")
        return calls
    return getattr(gen, workload)(seed)


def setup(workload: str, seed: int, work: Path | None):
    t0 = time.perf_counter()
    pkg = import_package()
    inputs = build(workload, seed, work)
    return time.perf_counter() - t0, pkg, inputs


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(raw seconds, seconds at the reference speed) of one fresh set-up."""
    work = HERE / ".work" / f"setup-{workload}-{seed}-{os.getpid()}"
    calibrate()
    before = calibrate()
    try:
        seconds, _, _ = setup(workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = calibrate()
    return seconds, seconds * 2 * CAL_REF_NS / (before + after)


def setup_in_fresh_processes(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-sample"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_ms() -> float:
    """Fresh `import enclosures` minus a bare interpreter start, medians of
    times at the reference speed."""
    runs = {"import enclosures": [], "pass": []}
    before = calibrate()
    for _ in range(IMPORT_SAMPLES):
        for code, times in runs.items():
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
            dt = time.perf_counter_ns() - t0
            after = calibrate()
            times.append(dt * 2 * CAL_REF_NS / (before + after))
            before = after
    return (statistics.median(runs["import enclosures"]) - statistics.median(runs["pass"])) / 1e6


# --- operations -----------------------------------------------------------------


def inproc_executor(pkg):
    def execute(op: gen.Op):
        classes, fields = {"class": op.expect}, {"audit": True}
        t0 = time.perf_counter_ns()
        try:
            src = pkg.parse(op.src)
            tgt = pkg.parse(op.tgt)
            cls = pkg.classify(src, tgt, op.grid, op.budget)
            audit = pkg.audit_classification(cls, src, tgt)
        except Exception as exc:  # a crash is a recorded failure, not the end of the run
            dt = time.perf_counter_ns() - t0
            return dt, judge(classes, fields, None, f"raised-{type(exc).__name__}"), False
        dt = time.perf_counter_ns() - t0
        payload = {"class": cls.kind.value, "audit": audit}
        return dt, judge(classes, fields, payload), decided(classes, payload)

    return execute


def cli_argv(call: gen.CliCall, work: Path) -> list[str]:
    return [str(work / a) if a in call.files else a for a in call.args]


def subprocess_executor(work: Path, peak: list[int]):
    """Runs each call as `python -m enclosures`; peak[0] tracks the children's
    largest resident set (KiB), read per child with wait4."""
    env = child_env()

    def execute(call: gen.CliCall):
        argv = [sys.executable, "-m", "enclosures", *cli_argv(call, work)]
        with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak[0] = max(peak[0], usage.ru_maxrss)
        return (dt, *_judge_cli(call, proc.returncode, (work / "stdout.txt").read_text()))

    return execute


def inproc_cli_executor(pkg, work: Path):
    """Calls cli.main(argv) in this process with its output captured."""

    def execute(call: gen.CliCall):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pkg.cli.main(cli_argv(call, work))
            except Exception as exc:  # recorded as a failure
                return time.perf_counter_ns() - t0, f"raised-{type(exc).__name__}", False
        dt = time.perf_counter_ns() - t0
        return (dt, *_judge_cli(call, code, out.getvalue()))

    return execute


def _judge_cli(call: gen.CliCall, code: int, stdout: str):
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        payload = None
    error = exit_error(call.args[0], code, payload)
    if error is None and payload is None:
        error = "bad-output"
    return judge(call.classes, call.fields, payload, error), decided(call.classes, payload)


# --- the closed loop -------------------------------------------------------------


class Tally:
    """Outcomes of one run: timed samples, failures, decided pairs."""

    def __init__(self):
        self.samples: list[float] = []  # ns at the reference speed
        self.raw: list[int] = []  # wall ns
        self.attempted = 0
        self.failed = 0
        self.pairs = 0
        self.decided = 0
        self.reasons: Counter = Counter()
        self.probe_reasons: Counter = Counter()
        self.wrong_probe = 0
        self.probe_attempted = 0
        self.passes = 0
        self.nodes = 0

    def add(self, item, dt: int, reason: str | None, dec: bool | None, cal_ns: float) -> None:
        if dec is not None:
            self.pairs += 1
            self.decided += dec
        if getattr(item, "probe", False):
            self.probe_attempted += 1
            if reason is not None:
                self.probe_reasons[f"{item.label}: {reason}"] += 1
                self.wrong_probe += not reason.startswith("raised-")
            return
        self.samples.append(dt * CAL_REF_NS / cal_ns)
        self.raw.append(dt)
        self.attempted += 1
        self.nodes += item.nodes
        if reason is not None:
            self.failed += 1
            self.reasons[f"{item.label}: {reason}"] += 1

    @property
    def ok_share(self) -> float:
        total = self.attempted + self.probe_attempted
        return (total - self.failed - sum(self.probe_reasons.values())) / total

    @property
    def decided_share(self) -> float:
        return self.decided / self.pairs if self.pairs else 1.0


def run_passes(items, execute, seconds: float, floor: int, tracer=None) -> Tally:
    """Whole passes until `seconds` have passed and `floor` samples are in.

    Probes run untraced and untimed; the tracer is active only around
    timed operations, never around the calibration loop.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        for item in items:
            if tracer is not None and not getattr(item, "probe", False):
                tracer.op += 1
                tracer.active = True
                try:
                    result = execute(item)
                finally:
                    tracer.active = False
            else:
                result = execute(item)
            after = calibrate()
            tally.add(item, *result, (before + after) / 2)
            before = after
        tally.passes += 1
        if time.perf_counter() >= deadline and len(tally.samples) >= floor:
            return tally


# --- metrics ----------------------------------------------------------------------


def latency(samples: list[float], floor: int) -> dict:
    ms = sorted(s / 1e6 for s in samples)
    p = tail_percentile(floor)
    value = percentile(ms, p)
    return {
        "p50": statistics.median(ms),
        "tail": value,
        "tail_percentile": p,
        "samples": len(ms),
        "beyond_tail": sum(1 for v in ms if v > value),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
    }


def end_to_end(tally: Tally, lat: dict, setup_s: float, rss_kib: int) -> dict:
    return {
        "op_ms.p50": lat["p50"],
        "op_ms.tail": lat["tail"],
        "ops_per_s": lat["ops_per_s"],
        "ok_share": tally.ok_share,
        "decided_share": tally.decided_share,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, tally: Tally, untraced: Tally, imp_ms: float) -> dict:
    ops = max(tally.attempted, 1)
    out = {}
    for mod, fn, _ in tracing.TRACED:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = tracer.calls[name] / ops
        out[f"{name}.self_ms"] = tracer.self_ns[name] / 1e6 / ops
    samples_calls = tracer.calls["enclosure.under_approx_samples"]
    enumerated = tracer.counts["enclosure.envs_enumerated"]
    parse_s = tracer.total_ns["parser.parse"] / 1e9
    out.update({
        "enclosure.envs_enumerated": enumerated / ops,
        "enclosure.envs_kept_ratio": tracer.counts["enclosure.envs_kept"] / enumerated if enumerated else 0.0,
        "enclosure.truncated_share": tracer.counts["enclosure.truncated"] / samples_calls if samples_calls else 0.0,
        "rewrite.enclosure_calls_per_op": tracer.within["rewrite", "enclosure.enclosure"] / ops,
        "parser.nodes_per_s": tally.nodes / parse_s if parse_s else 0.0,
        "cli.import_ms": imp_ms,
        "trace.overhead_ms": statistics.median(tally.samples) / 1e6 - statistics.median(untraced.samples) / 1e6,
    })
    return out


# --- reporting ----------------------------------------------------------------------


def machine() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def commit() -> str:
    """HEAD of the repository's git metadata, read without running git."""
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
    return "unknown (not a git checkout)"


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def report(args, tally: Tally, values: dict, kind: str, extra: dict) -> dict:
    metrics = {}
    for m in declared(kind):
        if m["name"] not in values:
            raise SystemExit(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = tally.failed == 0 and tally.wrong_probe == 0
    line = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), **machine(), "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "passes": tally.passes,
        "failures": dict(tally.reasons),
        "probes_attempted": tally.probe_attempted, "probe_failures": dict(tally.probe_reasons),
        "metrics": metrics, **extra,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return line


def run(args) -> dict:
    gen.check_family_table(args.seed)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            return run_traced(args, work)
        return run_untraced(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_untraced(args, work: Path) -> dict:
    setup_samples = setup_in_fresh_processes(args.workload, args.seed, SETUP_SAMPLES // 2)
    _, pkg, inputs = setup(args.workload, args.seed, work)
    floor = FLOORS[args.workload]
    if args.workload == "cli":
        # Children inherit this affinity, so each call runs on the processor
        # whose speed the calibration loop measures.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        peak = [0]
        tally = run_passes(inputs, subprocess_executor(work, peak), args.seconds, floor)
        os.sched_setaffinity(0, cpus)
        rss = peak[0]
    else:
        tally = run_passes(inputs, inproc_executor(pkg), args.seconds, floor)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_samples += setup_in_fresh_processes(args.workload, args.seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    lat = latency(tally.samples, floor)
    values = end_to_end(tally, lat, statistics.median(s for _, s in setup_samples), rss)
    extra = {
        "latency": lat,
        "raw_latency": latency(tally.raw, floor),
        "setup_samples_s": [s for _, s in setup_samples],
        "raw_setup_samples_s": [r for r, _ in setup_samples],
    }
    return report(args, tally, values, "end_to_end", extra)


def run_traced(args, work: Path) -> dict:
    _, pkg, inputs = setup(args.workload, args.seed, work)
    import enclosures.cli  # noqa: F401  (bound so its calls can be traced)

    if args.workload == "cli":
        execute = inproc_cli_executor(pkg, work)
    else:
        execute = inproc_executor(pkg)
    half = args.seconds / 2
    untraced = run_passes(inputs, execute, half, 1)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tally = run_passes(inputs, execute, half, 1, tracer)
    finally:
        undo()
    values = per_layer(tracer, tally, untraced, import_ms())
    extra = {
        "untraced_op_ms_p50": statistics.median(untraced.samples) / 1e6,
        "span_edges": [[p, c, n] for (p, c), n in tracer.edges.most_common()],
        "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
    }
    tally.failed += untraced.failed
    tally.attempted += untraced.attempted
    tally.wrong_probe += untraced.wrong_probe
    return report(args, tally, values, "per_layer", extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FLOORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "enclosures" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'enclosures'}", file=sys.stderr)
        return 2
    if args.setup_sample:
        print("%.9f %.9f" % setup_sample(args.workload, args.seed))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
