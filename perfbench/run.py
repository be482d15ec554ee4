"""End-to-end benchmark of the `somos` command-line tool.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of `somos` commands.  A pass runs them one
after another, each as a fresh `python -m somos.cli` process on the
checkout's `src/` (a closed loop with one client), and checks every exit
code, stdout and output file against references stored in this
directory.  Passes repeat until the next one would end after S seconds.

--trace 0 reports the end-to-end metrics: the median wall time and CPU
time (user + sys of the command processes) of a pass, each scaled to a
reference host speed (below), the median peak RSS, and the median
start-up time of `somos --version`, launched twice before each pass and
again in the time left after the last one.

A shared host can drift in speed by tens of percent over minutes.  So
every pass is bracketed by runs of reference_work.py, fixed
big-integer work that no change to the package can alter, and the pass
time is multiplied by REFERENCE_S over the mean time of its two
bracketing reference runs.  The unscaled medians are printed too.

--trace 1 alternates untraced passes with passes run under trace_cli.py,
which wraps each layer's public functions in spans, and reports
per-layer call counts, self times and sizes.  Traced call counts must match the number of
indices each command covers, and repeat exactly across passes.

The seed picks only the `certify --index` target in [400, 450) and the
`lemmas --seed` value, so the cost of a run does not depend on it.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every
command and count check passed, 1 when one failed, and 2 when the
current directory is not a checkout holding `src/somos`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from reference_work import CHECKSUM

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CLI = os.path.join(HERE, "trace_cli.py")
REFERENCE_WORK = os.path.join(HERE, "reference_work.py")
# Seconds that reference_work.py takes on an unloaded host (2-vCPU Xeon
# VM, Python 3.11.7).  Pass times are scaled to this reference speed.
REFERENCE_S = 0.45
COMMAND_TIMEOUT_S = 60
# Commands still running this long after start are killed, so that a
# hung program ends the run well within three minutes.
GIVE_UP_S = 150
SETUP_LAUNCHES_PER_PASS = 2
MIN_SETUP_LAUNCHES = 15

WORKLOADS = ("verify", "certify", "bfile", "explore")

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics and their units.  `*.self_s` is span time minus the
# time of child spans; `*.exponent` is the log-log slope of per-call self
# time against the sequence index n over the upper half of indices.
PER_LAYER = {
    "engine.step_integer.calls": "count",
    "engine.step_integer.self_s": "s",
    "engine.step_integer.exponent": "1",
    "engine.step_rational.calls": "count",
    "engine.step_rational.self_s": "s",
    "engine.recheck.self_s": "s",
    "engine.max_term_bits": "bits",
    "coprime.window.calls": "count",
    "coprime.window.self_s": "s",
    "coprime.window.failed": "count",
    "coprime.window.exponent": "1",
    "coprime.lemmas.samples": "count",
    "coprime.lemmas.self_s": "s",
    "certificate.build.calls": "count",
    "certificate.build.self_s": "s",
    "certificate.build.invalid": "count",
    "certificate.build.exponent": "1",
    "certificate.shifts.self_s": "s",
    "certificate.max_modulus_bits": "bits",
    "scanner.scan.calls": "count",
    "scanner.scan.self_s": "s",
    "formats.emit.self_s": "s",
    "formats.emit.bytes": "bytes",
    "formats.parse.self_s": "s",
    "formats.parse.bytes": "bytes",
    "formats.decimal.calls": "count",
    "formats.decimal.self_s": "s",
    "formats.decimal.max_digits": "digits",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.failed": "count",
    "trace.overhead_s": "s",
}

# Metrics that a traced pass must reproduce exactly, pass after pass.
COUNTED = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bits", "bytes", "digits")
)

# The layers whose per-call cost grows with n, for the scaling exponent.
SCALING_LAYERS = ("engine.step_integer", "coprime.window", "certificate.build")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_pairs(text: str, limit: int) -> list[tuple[int, int]]:
    """The first `limit` (index, value) pairs of b-file text.

    Comments and blank lines are skipped.  Later lines stay unparsed, so
    terms past the interpreter's int/str digit limit are never converted.
    """
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if len(pairs) == limit:
            break
        if line and not line.startswith("#"):
            index, value = line.split()
            pairs.append((int(index), int(value)))
    return pairs


# ---------------------------------------------------------------- checks
# Each check takes (exit code, stdout bytes) and returns None on success
# or a one-line reason.


def expect(exit_code: int, stdout: bytes | None = None, digest: str | None = None):
    def check(code: int, out: bytes) -> str | None:
        if code != exit_code:
            return f"exit {code}, expected {exit_code}"
        if stdout is not None and out != stdout:
            return f"stdout {out[:200]!r} differs from the expected report"
        if digest is not None and sha256(out) != digest:
            return "stdout digest differs from the reference"
        return None

    return check


def expect_bfile(path: str, digest: str, fixture: str, fixture_terms: int):
    """The b-file on disk matches its digest, and its first entries the fixture."""

    def check(code: int, out: bytes) -> str | None:
        if code != 0 or out:
            return f"exit {code} with {len(out)} bytes on stdout, expected exit 0 and none"
        with open(path, "rb") as handle:
            data = handle.read()
        if sha256(data) != digest:
            return "b-file digest differs from the reference"
        try:
            with open(fixture, encoding="utf-8") as handle:
                expected = parse_pairs(handle.read(), fixture_terms)
        except OSError as exc:
            return f"cannot read fixture: {exc}"
        got = parse_pairs(data.decode("ascii"), fixture_terms)
        if len(expected) != fixture_terms or got != expected:
            return f"b-file entries 0..{fixture_terms - 1} differ from {fixture}"
        return None

    return check


# ------------------------------------------------------------- workloads


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int, bytes], str | None]
    script: str | None = None  # a Python file to run instead of `-m somos.cli`


@dataclass
class Workload:
    commands: list[Command]
    # Exact per-pass values of the counted layer metrics under tracing.
    counts: dict[str, int]


NO_WORK = {
    "engine.step_integer.calls": 0,
    "engine.step_rational.calls": 0,
    "coprime.window.calls": 0,
    "coprime.window.failed": 0,
    "coprime.lemmas.samples": 0,
    "certificate.build.calls": 0,
    "certificate.build.invalid": 0,
    "scanner.scan.calls": 0,
    "formats.decimal.calls": 0,
    "cli.main.failed": 0,
}


def build_workload(name: str, seed: int, work: str, root: str) -> Workload:
    ref = load_reference()
    rng = random.Random(seed)
    index = rng.randrange(400, 450)
    lemma_seed = rng.randrange(2**31)
    if name == "verify":
        # Coprimality gcd windows and the recurrence re-check on the
        # largest terms any workload generates.
        return Workload(
            [
                Command(
                    ["verify", "--count", "700"],
                    expect(0, b"coprime-window over n in [4, 700): 696 checked, pass\n"),
                )
            ],
            dict(
                NO_WORK,
                **{
                    "engine.step_integer.calls": 700 - 5,
                    "coprime.window.calls": 700 - 4,
                    "cli.main.calls": 1,
                },
            ),
        )
    if name == "certify":
        # Divisibility certificates over a range, plus one certificate
        # printed as JSON through the >4300-digit decimal path.
        return Workload(
            [
                Command(
                    ["certify", "--count", "450"],
                    expect(0, b"certificate over n in [10, 450): 440 checked, pass\n"),
                ),
                Command(
                    ["certify", "--index", str(index), "--format", "json"],
                    expect(0, digest=ref["certify_index_json"][str(index)]),
                ),
            ],
            dict(
                NO_WORK,
                **{
                    # generate(450) steps 5..449; generate(index) steps 5..index-1.
                    "engine.step_integer.calls": (450 - 5) + (index - 5),
                    "certificate.build.calls": (450 - 10) + 1,
                    # modulus, precondition gcd, 5 shifts x (lhs, rhs),
                    # 8 chain values, 2 dropped multiples, residue.
                    "formats.decimal.calls": 1 + 1 + 10 + 8 + 2 + 1,
                    "cli.main.calls": 2,
                },
            ),
        )
    if name == "bfile":
        # The b-file codec: write 700 terms, then two reads that parse all
        # 700 lines but compute on only the first 300.
        path = os.path.join(work, "somos5.b")
        return Workload(
            [
                Command(
                    ["generate", "--count", "700", "--format", "bfile", "--output", path],
                    expect_bfile(
                        path,
                        ref["bfile_700"],
                        os.path.join(root, "fixtures", "b006721.txt"),
                        200,
                    ),
                ),
                Command(
                    ["verify", "--input", path, "--count", "300"],
                    expect(0, b"coprime-window over n in [4, 300): 296 checked, pass\n"),
                ),
                Command(
                    ["crosscheck", "--input", path, "--count", "300"],
                    expect(0, b"crosscheck over n in [0, 300): 300 checked, pass\n"),
                ),
            ],
            dict(
                NO_WORK,
                **{
                    "engine.step_integer.calls": (700 - 5) + (300 - 5),
                    "coprime.window.calls": 300 - 4,
                    # 700 terms emitted, then 700 parsed by each read.
                    "formats.decimal.calls": 3 * 700,
                    "cli.main.calls": 3,
                },
            ),
        )
    if name == "explore":
        # Rational-mode engine (Fraction normalisation), the Somos-k scanner
        # and the randomized lemma harness.
        return Workload(
            [
                Command(
                    ["scan", "--k", "7", "--count", "700", "--depth", "4"],
                    expect(
                        1,
                        b"scanned somos-7 for 700 terms\n"
                        b"all terms integral\n"
                        b"first common factor at index 9, offset 2: gcd = 3\n",
                    ),
                ),
                Command(
                    ["generate", "--k", "8", "--count", "54", "--mode", "rational"],
                    expect(0, digest=ref["somos8_rational_54"]),
                ),
                Command(
                    ["lemmas", "--seed", str(lemma_seed), "--samples", "10000"],
                    expect(
                        0,
                        b"product: 10000 samples, 0 counterexamples\n"
                        b"pairwise: 10000 samples, 0 counterexamples\n"
                        b"shift: 10000 samples, 0 counterexamples\n"
                        b"cancellation: 10000 samples, 0 counterexamples\n",
                    ),
                ),
            ],
            dict(
                NO_WORK,
                **{
                    "engine.step_rational.calls": (700 - 7) + (54 - 8),
                    "scanner.scan.calls": 1,
                    "coprime.lemmas.samples": 4 * 10000,
                    # The witness gcd, then one conversion per Somos-8 term
                    # plus one more for each of the 37 fractions (n >= 17).
                    "formats.decimal.calls": 1 + 54 + 37,
                    "cli.main.calls": 3,
                },
            ),
        )
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------- processes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    spans: list = field(default_factory=list)


class Runner:
    """Launches command processes one at a time and records failed checks."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.give_up_at = time.perf_counter() + GIVE_UP_S

    def run(self, command: Command, traced: bool = False) -> Outcome:
        self.attempted += 1
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        spans_path = os.path.join(self.work, "spans.json")
        if command.script:
            cmd = [sys.executable, command.script, *command.argv]
        elif traced:
            cmd = [sys.executable, TRACE_CLI, spans_path, *command.argv]
        else:
            cmd = [sys.executable, "-m", "somos.cli", *command.argv]
        timeout = min(COMMAND_TIMEOUT_S, max(self.give_up_at - time.perf_counter(), 1))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.root, env=self.env
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                # wait4, unlike Popen.wait, returns the child's own rusage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as handle:
            failure = command.check(code, handle.read())
        spans = []
        if traced and failure is None:
            try:
                with open(spans_path, encoding="utf-8") as handle:
                    spans = json.load(handle)
                os.remove(spans_path)
            except OSError:
                failure = "the traced command wrote no spans"
        if failure is not None:
            with open(err_path, "rb") as handle:
                tail = handle.read()[-300:].decode("utf-8", "replace").strip()
            self.failures.append(
                f"{command.script or 'somos'} {' '.join(command.argv)}: {failure}"
                + (f" [{tail}]" if tail else "")
            )
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, spans)

    def reference(self) -> Outcome:
        """One run of the fixed calibration work."""
        return self.run(Command([], expect(0, f"{CHECKSUM}\n".encode()), REFERENCE_WORK))

    def setup_time(self) -> float:
        """Wall time of one `somos --version`: interpreter start plus import."""
        command = Command(["--version"], self._check_version)
        return self.run(command).wall_s

    @staticmethod
    def _check_version(code: int, out: bytes) -> str | None:
        words = out.decode("utf-8", "replace").split()
        if code != 0 or len(words) != 2 or words[0] != "somos":
            return f"exit {code}, stdout {out!r}, expected 'somos <version>'"
        return None


def run_pass(runner: Runner, workload: Workload, traced: bool = False) -> list[Outcome]:
    return [runner.run(command, traced) for command in workload.commands]


# ---------------------------------------------------------- aggregation


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(self time) on log(n) for n >= max(n) / 2.

    0.0 when fewer than two distinct indices are available.
    """
    if not points:
        return 0.0
    top = max(n for n, _ in points)
    upper = [(math.log(n), math.log(t)) for n, t in points if 2 * n >= top and t > 0]
    if len({x for x, _ in upper}) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in upper)
    mean_y = statistics.fmean(y for _, y in upper)
    sxx = sum((x - mean_x) ** 2 for x, _ in upper)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in upper)
    return sxy / sxx


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its commands together)."""
    metrics = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
    points = {layer: [] for layer in SCALING_LAYERS}
    for outcome in outcomes:
        spans = outcome.spans
        for span, own in zip(spans, self_times(spans)):
            name, _, _, _, index, attrs = span
            attrs = attrs or {}
            if name + ".calls" in metrics:
                metrics[name + ".calls"] += 1
            if name + ".self_s" in metrics:
                metrics[name + ".self_s"] += own
            if name in points:
                points[name].append((index, own))
            if name.startswith("engine.step_"):
                metrics["engine.max_term_bits"] = max(
                    metrics["engine.max_term_bits"], attrs.get("bits", 0)
                )
            elif name == "coprime.window":
                metrics["coprime.window.failed"] += attrs.get("failed", 1)
            elif name == "coprime.lemmas":
                metrics["coprime.lemmas.samples"] += attrs.get("samples", 0)
            elif name == "certificate.build":
                metrics["certificate.build.invalid"] += attrs.get("invalid", 1)
                metrics["certificate.max_modulus_bits"] = max(
                    metrics["certificate.max_modulus_bits"], attrs.get("modulus_bits", 0)
                )
            elif name in ("formats.emit", "formats.parse"):
                metrics[name + ".bytes"] += attrs.get("bytes", 0)
            elif name == "formats.decimal":
                metrics["formats.decimal.max_digits"] = max(
                    metrics["formats.decimal.max_digits"], attrs.get("digits", 0)
                )
            elif name == "cli.main":
                metrics["cli.main.failed"] += int(attrs.get("exit", 2) not in (0, 1))
    for layer, layer_points in points.items():
        metrics[layer + ".exponent"] = fit_exponent(layer_points)
    return metrics


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.wall_s for o in outcomes)


# ------------------------------------------------------------------ main


def repeat(seconds: float, step: Callable[[], None]) -> None:
    """Call step() at least once, and again while it would end within `seconds`."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        now = time.perf_counter()
        if now + (now - start) / calls > start + seconds:
            return


def measure_end_to_end(runner: Runner, workload: Workload, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    passes, setups, references = [], [], [runner.reference()]

    def step():
        setups.extend(runner.setup_time() for _ in range(SETUP_LAUNCHES_PER_PASS))
        passes.append(run_pass(runner, workload))
        references.append(runner.reference())

    repeat(seconds, step)
    # The time left before the deadline, too short for another pass, goes
    # to more set-up launches.
    while len(setups) < MIN_SETUP_LAUNCHES or time.perf_counter() < deadline:
        setups.append(runner.setup_time())

    walls = [pass_wall(p) for p in passes]
    cpus = [sum(o.cpu_s for o in p) for p in passes]
    # Each pass is scaled by the speed of the reference runs just before
    # and just after it.
    brackets = list(zip(references, references[1:]))
    wall_scale = [2 * REFERENCE_S / (a.wall_s + b.wall_s) for a, b in brackets]
    cpu_scale = [2 * REFERENCE_S / (a.cpu_s + b.cpu_s) for a, b in brackets]
    print("pass wall s:", " ".join(f"{w:.4f}" for w in walls))
    print(
        f"unscaled medians: wall_s = {statistics.median(walls):.6g} s, "
        f"cpu_s = {statistics.median(cpus):.6g} s, reference run = "
        f"{statistics.median(r.wall_s for r in references):.6g} s"
    )
    return {
        "wall_norm_s": statistics.median(w * k for w, k in zip(walls, wall_scale)),
        "cpu_norm_s": statistics.median(c * k for c, k in zip(cpus, cpu_scale)),
        "peak_rss_mb": statistics.median(max(o.maxrss_kb for o in p) / 1024 for p in passes),
        "setup_s": statistics.median(setups),
    }


def measure_layers(runner: Runner, workload: Workload, seconds: float) -> dict:
    passes, traced_passes = [], []

    def step():
        passes.append(run_pass(runner, workload))
        traced_passes.append(run_pass(runner, workload, traced=True))

    repeat(seconds, step)
    per_pass = [layer_metrics(p) for p in traced_passes]
    metrics = {
        name: per_pass[0][name]
        if name in COUNTED
        else statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    wall = statistics.median(pass_wall(p) for p in traced_passes)
    metrics["trace.overhead_s"] = wall - statistics.median(pass_wall(p) for p in passes)
    for name in COUNTED:
        seen = {m[name] for m in per_pass}
        if len(seen) != 1:
            runner.failures.append(f"{name} varies across traced passes: {sorted(seen)}")
    for name, expected in workload.counts.items():
        if metrics[name] != expected:
            runner.failures.append(f"{name} = {metrics[name]}, expected {expected}")
    print(f"traced pass wall {wall:.4f} s; self-time shares:")
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            print(f"  {name[:-7]:<22} {metrics[name]:9.4f} s  {100 * metrics[name] / wall:5.1f}%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "somos", "cli.py")):
        print(f"error: {root} holds no src/somos; run from a checkout's root", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        runner = Runner(root, work)
        workload = build_workload(args.workload, args.seed, work, root)
        runner.setup_time()  # untimed warm-up: compiles the package's bytecode once
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / max(runner.attempted, 1):.6g} ({failed} of {runner.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
