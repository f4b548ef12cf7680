"""Benchmark of the tukeyseg CLI on seeded synthetic DAVIS-size workloads.

    python3 bench/run.py --workload video-refine --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload fuse-eval --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload svx-dense --smoke --trace 0
    python3 bench/run.py --write-spec

Run it from anywhere; it uses the ``src/`` tree next to this directory and
writes only under ``.bench_run/`` there, which it removes again.

``--trace 0`` runs each subcommand the way a user does: one fresh
interpreter per invocation, one client in a closed loop, at most 2 worker
threads. It runs rounds of one set-up probe and the workload's whole
pipeline (tis0, refine, combine, eval) in order, with a speed probe after
each round, for ``--seconds`` and at least three rounds. It reports the
medians over rounds of each subcommand's frames per second and peak RSS,
the median set-up time, and eval's J and F. Frames per second and set-up
time are scaled to a reference machine speed by the speed probes on either
side of their round (see ``SPEED_PROBE``); the values as measured are
printed too.

``--trace 1`` runs the same pipeline with every subcommand called
in-process, alternating untraced and traced passes, each pass in a fresh
interpreter (see ``spans.py``), and reports the per-layer metrics and the
tracing overhead.

Both modes check the outputs: every invocation must succeed, produce the
same bytes as the first run of its step, and eval must score J above the
workload's floor; a failed check counts as a failed invocation. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs the same code on
tiny inputs; ``--write-spec`` writes ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
MIN_ROUNDS = 3
SPAN_IDS_PER_PASS = 10**9

# The machine this runs on may be shared: on a shared 2-core virtual machine its speed
# drifted by a third within minutes. The speed probe is fixed work in a fresh interpreter
# that does not touch tukeyseg: the numpy and scipy imports every CLI invocation also pays
# for, then about as long again of array work of the kinds the pipeline does. A round's
# times are scaled by the mean of the probes just before and after it, to what they would
# be on a machine where the probe takes PROBE_NOMINAL_S.
SPEED_PROBE = """
import numpy as np
from scipy import ndimage
a = np.random.default_rng(0).random((480, 854))
for _ in range(6):
    np.quantile(a, (0.25, 0.5, 0.75)); np.hypot(a, a); np.arctan2(a, a)
    ndimage.label(a > 0.5); ndimage.distance_transform_edt(a < 0.9)
"""
PROBE_NOMINAL_S = 0.9

if not (SRC / "tukeyseg" / "cli.py").is_file():
    sys.exit(f"error: no tukeyseg sources at {SRC}; run the benchmark from a checkout")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import synth  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    HEIGHT,
    SMOKE_FUSION,
    SMOKE_J_FLOOR,
    SMOKE_SIZE,
    SMOKE_VIDEO,
    SUBCOMMANDS,
    WIDTH,
    WORKLOADS,
    benchmark_json,
    per_layer_metrics,
)

import tukeyseg.cli  # noqa: E402


@dataclass(frozen=True)
class Step:
    """One CLI invocation of the pipeline."""

    command: str
    argv: tuple[str, ...]
    frames: int
    output: Path


@dataclass
class Invocation:
    step: Step
    seconds: float
    rss_mb: float
    ok: bool
    note: str = ""
    digest: str = ""
    scores: tuple[float, float] | None = None  # eval's (J mean, F mean)


@dataclass
class Pass:
    """One in-process run of the whole pipeline."""

    invocations: list[Invocation]
    seconds: float
    output_bytes: int


# --- inputs ---


def shapes(workload, smoke):
    if smoke:
        return SMOKE_SIZE, SMOKE_VIDEO, SMOKE_FUSION if workload.fusion else None
    return (HEIGHT, WIDTH), workload.video, workload.fusion


def j_floor(workload, smoke) -> float:
    return SMOKE_J_FLOOR if smoke else workload.j_floor


def generate(workload, seed, smoke, inputs: Path) -> None:
    (height, width), video, fusion = shapes(workload, smoke)
    synth.write_video(inputs / "video" / "clip", inputs / "truth" / "refine", seed,
                      height, width, video)
    if fusion:
        synth.write_fusion(inputs / "methods", inputs / "fusion_truth", seed + 1,
                           height, width, fusion)


def pipeline(workload, smoke, inputs: Path, out: Path) -> list[Step]:
    """tis0 and refine on the video, then combine and eval.

    Without a fusion set, combine fuses the video's own tis0 and refine masks
    and eval scores the refine masks against the video's truth. With one,
    combine fuses each sequence's method masks and eval scores the fused masks.
    """
    _, video, fusion = shapes(workload, smoke)
    jobs = ("--jobs", str(workload.jobs))
    clip = str(inputs / "video" / "clip")
    passes = out / "passes"
    steps = [
        Step("tis0", ("tis0", "--input", clip, "--output", str(passes / "tis0"), *jobs),
             video.frames, passes / "tis0"),
        Step("refine", ("refine", "--mode", "nonlocal", "--input", clip,
                        "--output", str(passes / "refine"), *jobs),
             video.frames, passes / "refine"),
    ]
    if fusion is None:
        fuse_inputs = [("clip", passes, video.frames)]
        scored, truth, scored_frames = passes, inputs / "truth", video.frames
    else:
        fuse_inputs = [(f"seq{s:02d}", inputs / "methods" / f"seq{s:02d}", fusion.frames)
                       for s in range(fusion.sequences)]
        scored, truth = out / "fused", inputs / "fusion_truth"
        scored_frames = fusion.sequences * fusion.frames
    for name, methods, frames in fuse_inputs:
        target = out / "fused" / name
        steps.append(Step("combine", ("combine", "--strategy", "tism", "--input", str(methods),
                                      "--output", str(target), *jobs), frames, target))
    steps.append(Step("eval", ("eval", "--input", str(scored), "--ground-truth", str(truth),
                               "--output", str(out / "eval.csv"), *jobs),
                      scored_frames, out / "eval.csv"))
    return steps


# --- outputs ---


def digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(str(p.relative_to(path.parent)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def size_of(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def read_scores(csv_path: Path) -> tuple[float, float]:
    """(J mean, F mean) from the ALL row of eval's CSV table."""
    for line in csv_path.read_text().splitlines():
        cells = line.split(",")
        if cells[0] == "ALL":
            return float(cells[1]), float(cells[4])
    raise ValueError(f"{csv_path}: no ALL row")


def collect(inv: Invocation) -> None:
    """Digest a successful invocation's output and, for eval, read its scores."""
    if inv.ok:
        inv.digest = digest(inv.step.output)
        if inv.step.command == "eval":
            inv.scores = read_scores(inv.step.output)


def check(inv: Invocation, index: int, reference: dict, floor: float) -> None:
    """Fail an invocation whose output differs from the first run of pipeline step
    ``index``, or an eval whose J mean is not above ``floor``."""
    if not inv.ok:
        return
    if inv.digest != reference.setdefault(index, inv.digest):
        inv.ok, inv.note = False, f"output differs from the first run of {inv.step.output.name}"
    elif inv.scores and not inv.scores[0] > floor:
        inv.ok, inv.note = False, f"J mean {inv.scores[0]:.6f} not above the floor {floor}"


# --- untraced: one interpreter per invocation ---


def spawn(argv, log: Path, path=(SRC,)) -> tuple[float, float, int]:
    """Run one interpreter; (wall seconds, its own peak RSS in MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)), TIS_LOG="warning")
    start = time.perf_counter()
    with log.open("wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)
        try:
            # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would keep a running
            # maximum over every child waited for so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(clip: Path, work: Path) -> float:
    """Fresh interpreter: import tukeyseg.cli and open_sequence the video, decoding no frame."""
    marker = work / "setup_module.txt"
    code = ("import sys, tukeyseg.cli; from tukeyseg.io import open_sequence; "
            "open_sequence(sys.argv[1]); open(sys.argv[2], 'w').write(tukeyseg.cli.__file__)")
    seconds, _, exit_code = spawn(["-c", code, str(clip), str(marker)], work / "setup.log")
    if exit_code != 0:
        raise RuntimeError("set-up probe failed:\n" + (work / "setup.log").read_text())
    if Path(marker.read_text()).resolve() != (SRC / "tukeyseg" / "cli.py").resolve():
        raise RuntimeError(f"children import tukeyseg from {marker.read_text()}, not {SRC}")
    return seconds


def speed_probe(work: Path) -> float:
    seconds, _, code = spawn(["-c", SPEED_PROBE], work / "probe.log", path=())
    if code != 0:
        raise RuntimeError("speed probe failed:\n" + (work / "probe.log").read_text())
    return seconds


@dataclass
class Round:
    """One set-up and one run of the whole pipeline, between two speed probes."""

    setup: float
    invocations: list[Invocation]
    probes: tuple[float, float]

    @property
    def speed(self) -> float:
        """The machine's speed during the round, from the probes on either side of it."""
        return PROBE_NOMINAL_S / statistics.mean(self.probes)

    def of(self, cmd: str) -> list[Invocation]:
        return [i for i in self.invocations if i.step.command == cmd]


def run_rounds(steps, seconds: float, floor: float, clip: Path, work: Path) -> list[Round]:
    """Rounds of set-up and the whole pipeline in order, each followed by a speed probe.

    Interleaving spreads every subcommand's samples over the whole run, so a
    stretch of time in which the machine is slow touches one round of each,
    and each round is scaled by the probes taken just before and after it.
    Rounds go on while another one fits in ``seconds``, and at least
    ``MIN_ROUNDS``. Every invocation starts without its output, as a user's
    first run does.
    """
    rounds = []
    reference = {}
    log = work / "invocation.log"
    speed_probe(work)  # not used: the first probe after the inputs are written runs slow
    probe = speed_probe(work)
    start = time.perf_counter()
    durations = []
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        setup = measure_setup(clip, work)
        invocations = []
        for index, step in enumerate(steps):
            remove(step.output)
            wall, rss, code = spawn(["-m", "tukeyseg.cli", *step.argv], log)
            note = "" if code == 0 else f"exit {code}: {log.read_text().strip()[-500:]}"
            inv = Invocation(step, wall, rss, code == 0, note)
            collect(inv)
            check(inv, index, reference, floor)
            invocations.append(inv)
        previous, probe = probe, speed_probe(work)
        rounds.append(Round(setup, invocations, (previous, probe)))
        durations.append(time.perf_counter() - began)
    return rounds


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict:
    """Medians over rounds; times scaled by each round's machine speed unless ``scaled`` is off."""
    def speed(r):
        return r.speed if scaled else 1.0

    metrics = {"setup_s": statistics.median(r.setup * speed(r) for r in rounds)}
    for cmd in SUBCOMMANDS:
        metrics[f"{cmd}_fps"] = statistics.median(
            sum(i.step.frames for i in r.of(cmd)) / sum(i.seconds for i in r.of(cmd)) / speed(r)
            for r in rounds)
        metrics[f"{cmd}_peak_rss_mb"] = statistics.median(
            max(i.rss_mb for i in r.of(cmd)) for r in rounds)
    metrics["j_mean"], metrics["f_mean"] = rounds[0].of("eval")[0].scores
    return metrics


# --- traced: the same pipeline in one process ---


def run_inprocess_pass(steps, out: Path, first_span_id=None) -> tuple[Pass, list]:
    """One pass calling ``tukeyseg.cli.main`` in this process; traced when given a span id."""
    tracer = spans.Tracer(first_span_id or 0)
    if first_span_id is not None:
        tracer.install()
    invocations = []
    try:
        for step in steps:
            start = time.perf_counter()
            note = ""
            try:
                with contextlib.redirect_stdout(StringIO()):
                    code = tukeyseg.cli.main(list(step.argv))
            except Exception:
                code, note = -1, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            invocations.append(Invocation(step, seconds, float("nan"), code == 0,
                                          note or ("" if code == 0 else f"exit {code}")))
    finally:
        tracer.uninstall()
    for inv in invocations:
        collect(inv)
    p = Pass(invocations, sum(i.seconds for i in invocations),
             sum(size_of(s.output) for s in steps if s.output.exists()))
    shutil.rmtree(out, ignore_errors=True)
    return p, tracer.spans


def child_pass(task_file) -> None:
    """Entry point of the interpreter that ``run_pass_in_child`` starts."""
    task = json.loads(Path(task_file).read_text())
    workload = next(w for w in WORKLOADS if w.name == task["workload"])
    out = Path(task["out"])
    p, recorded = run_inprocess_pass(pipeline(workload, task["smoke"], Path(task["inputs"]), out),
                                     out, task["first_span_id"])
    result = {
        "invocations": [[i.seconds, i.ok, i.note, i.digest, i.scores] for i in p.invocations],
        "pass": [p.seconds, p.output_bytes],
        "spans": [dataclasses.astuple(s) for s in recorded],
    }
    Path(task["result"]).write_text(json.dumps(result))


def run_pass_in_child(workload, smoke, inputs, out, first_span_id, work) -> tuple[Pass, list]:
    """Run one in-process pass in a fresh interpreter, so that traced and untraced
    passes start from the same state; returns the pass and its spans."""
    task = {"workload": workload.name, "smoke": smoke, "inputs": str(inputs), "out": str(out),
            "first_span_id": first_span_id, "result": str(work / "pass.out")}
    (work / "pass.json").write_text(json.dumps(task))
    log = work / "pass.log"
    _, _, code = spawn(["-c", "import sys, run; run.child_pass(sys.argv[1])",
                        str(work / "pass.json")], log, path=(BENCH, SRC))
    if code != 0:
        raise RuntimeError("in-process pass failed:\n" + log.read_text())
    result = json.loads(Path(task["result"]).read_text())
    steps = pipeline(workload, smoke, inputs, out)
    invocations = [Invocation(step, seconds, float("nan"), ok, note, digest_,
                              tuple(scores) if scores else None)
                   for step, (seconds, ok, note, digest_, scores)
                   in zip(steps, result["invocations"])]
    return Pass(invocations, *result["pass"]), [spans.Span(*s) for s in result["spans"]]


# --- reporting ---


def print_result(correct, attempted, failed, metrics, units) -> None:
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(line), flush=True)


def print_metric(name, value, unit, better) -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<9} {better}")


def report_failures(invocations) -> int:
    failed = [inv for inv in invocations if not inv.ok]
    for inv in failed:
        print(f"FAILED {inv.step.command} {inv.step.output.name}: {inv.note}")
    return len(failed)


def report_digests(invocations) -> None:
    total = hashlib.sha256()
    for inv in invocations:
        print(f"  digest {inv.step.command:<8} {inv.step.output.name:<8} {inv.digest}")
        total.update(inv.digest.encode())
    print(f"  masks_sha256 {total.hexdigest()}")


def run_untraced(workload, args, inputs, work) -> int:
    steps = pipeline(workload, args.smoke, inputs, work / "out")
    rounds = run_rounds(steps, args.seconds, j_floor(workload, args.smoke),
                        inputs / "video" / "clip", work)
    invocations = [i for r in rounds for i in r.invocations]
    failed = report_failures(invocations)
    correct = failed == 0
    metrics = end_to_end(rounds) if correct else {}
    speeds = [r.speed for r in rounds]
    print(f"{workload.name}: {len(rounds)} rounds of set-up and the whole pipeline; medians "
          f"over rounds; machine speed {min(speeds):.4f} to {max(speeds):.4f} "
          f"(speed probe {PROBE_NOMINAL_S} s at 1.0)")
    for m in END_TO_END:
        if m.name in metrics:
            print_metric(m.name, metrics[m.name], m.unit, m.better)
    if correct:
        for k, r in enumerate(rounds):
            one = end_to_end([r])
            print(f"  round {k}: speed {r.speed:.4f}, " + ", ".join(
                f"{name} {one[name]:.4g}" for name in one if name == "setup_s" or "_fps" in name))
        wall = end_to_end(rounds, scaled=False)
        print("  as measured, before scaling: " + ", ".join(
            f"{name} {wall[name]:.6g}" for name in wall if name == "setup_s" or "_fps" in name))
    print_metric("fail_ratio", failed / len(invocations), "ratio", "lower")
    report_digests(rounds[0].invocations)
    print_result(correct, len(invocations), failed, metrics,
                 {m.name: m.unit for m in END_TO_END} if correct else {})
    return 0 if correct else 1


def run_traced(workload, args, inputs, work) -> int:
    untraced, traced, span_list = [], [], []
    floor = j_floor(workload, args.smoke)
    reference = {}
    start = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= args.seconds:
        began = time.perf_counter()
        for kind, bucket in (("untraced", untraced), ("traced", traced)):
            out = work / f"{kind}{len(bucket)}"
            first_id = None if kind == "untraced" else len(traced) * SPAN_IDS_PER_PASS
            p, recorded = run_pass_in_child(workload, args.smoke, inputs, out, first_id, work)
            for index, inv in enumerate(p.invocations):
                check(inv, index, reference, floor)
            bucket.append(p)
            span_list += recorded
        pair = time.perf_counter() - began
    invocations = [i for p in untraced + traced for i in p.invocations]
    failed = report_failures(invocations)
    index = spans.SpanIndex(span_list)
    metrics = {}
    if failed == 0:
        overhead = (statistics.median(p.seconds for p in traced)
                    - statistics.median(p.seconds for p in untraced))
        try:
            metrics = spans.layer_metrics(index, len(traced), traced[0].output_bytes / 1e6,
                                          overhead)
        except ValueError as exc:
            print(f"FAILED traced run: {exc}")
    correct = failed == 0 and bool(metrics)
    print(f"{workload.name}: {len(traced)} traced and {len(untraced)} untraced in-process passes")
    print("  function calls, errors and median seconds:")
    for name, calls, errors, median in spans.function_table(index):
        print(f"    {name:<40} {calls:>7} {errors:>3} {median:.6g}")
    layer = per_layer_metrics()
    for m in layer:
        if m.name in metrics:
            print_metric(m.name, metrics[m.name], m.unit, m.better)
    report_digests(traced[0].invocations)
    print_result(correct, len(invocations), failed, metrics,
                 {m.name: m.unit for m in layer} if correct else {})
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that children are killed and the work tree removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        generate(workload, args.seed, args.smoke, work / "inputs")
        print(f"inputs for {workload.name} seed {args.seed}: generated in "
              f"{time.perf_counter() - start:.2f} s (not part of any metric)")
        run = run_traced if args.trace else run_untraced
        return run(workload, args, work / "inputs", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
