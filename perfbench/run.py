"""Benchmark for ``continuum``: one closed-loop client calling ``cli.run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace|queries|laws --seed N \\
        --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout and driven
in-process, single-threaded, one command at a time. Every output is
checked against ``reference.py`` or integer arithmetic. Human-readable
lines go to stdout first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs whole passes of the workload for about ``--seconds``
and reports the end-to-end metrics, each duration scaled by the run's
machine-speed calibration (``calibration.py``). ``--trace 1`` runs the
first pass twice plainly (the first to warm up) and once with every
public library function wrapped (``spans.py``), reports the per-layer
metrics, and writes the spans to ``perfbench/out/``. See
``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import reference
from spans import Tracer
from workloads import TRACE_MUS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAYERS = ("cli", "bijection", "binary_streams", "dyadic", "finite_sets")

SETUP_REPEATS = 11
MIN_LATENCY_SAMPLES = 1100  # p99 needs at least 10 samples beyond it
CALIBRATE_EVERY_S = 0.5
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import continuum.cli\n"
    "seconds = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibration\n"
    "print(seconds, calibration.speed_factor(calibration.sample()), continuum.cli.__file__)\n"
)

# Per-layer counters reported by ``--trace 1``. Self times of library
# functions go to the spans file and the printed table, not here: on the
# workloads that never call a function they are exactly zero.
COUNTED = (
    "cli.run",
    "binary_streams.parse_stream",
    "binary_streams.canonicalize",
    "binary_streams.value",
    "binary_streams.expansions_of",
    "binary_streams.classify_stream",
    "bijection.forward",
    "bijection.inverse",
    "bijection.t_index",
    "bijection.s_index",
    "bijection.t_enumerate",
    "dyadic.parse_rational",
    "dyadic.ensure_unit_interval",
    "dyadic.index_of",
    "finite_sets.covering_set",
    "finite_sets.pair_label",
    "finite_sets.verify_exponent_law",
)
PER_STREAM = ("binary_streams.canonicalize", "bijection.forward", "bijection.inverse")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no library source, failed import)."""


def measure_setup() -> tuple[float, float]:
    """Median time to import ``continuum.cli`` in a fresh interpreter.

    Returns the calibrated median and the raw one; each import is scaled
    by a calibration taken in the same interpreter right after it.
    """
    times, scaled = [], []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"importing continuum failed: {proc.stderr.strip()[-300:]}")
        seconds, factor, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"continuum was imported from {path}, not from {SRC}")
        if attempt:  # the first import may compile bytecode; it is not timed
            times.append(float(seconds))
            scaled.append(float(seconds) * float(factor))
    return statistics.median(scaled), statistics.median(times)


def import_library():
    if not (SRC / "continuum" / "__init__.py").is_file():
        raise BenchmarkError(f"no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import continuum.cli

    if not Path(continuum.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"continuum was imported from {continuum.cli.__file__}")
    return continuum


def run_info() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
    }


class Tally:
    """Latencies, work items and output mismatches of the commands run.

    Between commands, at most every ``CALIBRATE_EVERY_S``, it also times
    the calibration kernel (see ``calibration.py``).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.by_role: dict[str, list[float]] = {}
        self.items = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.kernel_times: list[float] = []
        self._calibrated_at = float("-inf")

    def calibrate(self) -> None:
        self.kernel_times.extend(calibration.sample())
        self._calibrated_at = time.perf_counter()

    def run(self, cli, commands) -> None:
        for command in commands:
            if len(commands) < 10:
                gc.collect()  # heavy commands: start each from a clean heap
            if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
                self.calibrate()
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = cli.run(command.argv)
            except Exception as err:  # a crash is a wrong result, not a stop
                self.errors.append(f"{command.argv[:3]}: crashed: {err!r}")
                continue
            elapsed = time.perf_counter() - start
            reason = command.check(result)
            if reason is not None:
                self.errors.append(f"{' '.join(command.argv)[:100]}: {reason}")
                continue
            self.latencies.append(elapsed)
            self.by_role.setdefault(command.role, []).append(elapsed)
            self.items += command.items


def end_to_end(tally: Tally, setup_s: float, factor: float) -> dict:
    """The end-to-end metrics, every duration multiplied by ``factor``."""
    if "median" in tally.by_role:
        # trace and laws: medians of their smaller and their largest command
        median_s = statistics.median(tally.by_role["median"])
        tail_s = statistics.median(tally.by_role["tail"])
    else:
        # queries: percentiles over every query answered
        median_s = statistics.median(tally.latencies)
        tail_s = statistics.quantiles(tally.latencies, n=100)[98]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (tally.items / (sum(tally.latencies) * factor), "1/s"),
        "median_ms": (median_s * factor * 1e3, "ms"),
        "tail_ms": (tail_s * factor * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(cli, make_pass, seed: int, seconds: float) -> Tally:
    """Whole passes, as many as end nearest to ``seconds`` from now.

    On ``queries`` the run also goes on until the p99 has its samples.
    """
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        tally.run(cli, make_pass(seed, index))
        index += 1
        enough = len(tally.latencies) >= MIN_LATENCY_SAMPLES or "median" in tally.by_role
        elapsed = time.perf_counter() - start
        if (seconds - elapsed < elapsed / index / 2 and enough) or elapsed >= 2 * seconds:
            tally.calibrate()
            return tally


def _set_sizes(universes) -> tuple[dict, list[str]]:
    """|B|, |B_X|, |B_S|, |T| of each traced universe, checked against closed forms."""
    sizes, errors = {}, []
    for mu, streams in universes:
        literals = {("".join(map(str, e.preamble)), "".join(map(str, e.period))) for e in streams}
        if len(literals) != len(streams) or any(reference.canon(*s) != s for s in literals):
            errors.append(f"enumerate_canonical({mu}) returned duplicate or non-canonical streams")
        redundant = sum(reference.is_redundant(s) for s in literals)
        found = {
            "B": len(streams),
            "B_X": len(streams) - redundant,
            "B_S": redundant,
            "T": sum(reference.in_chain(s) for s in literals),
        }
        if found != reference.bounded_set_sizes(mu):
            errors.append(f"set sizes at mu={mu}: {found} != {reference.bounded_set_sizes(mu)}")
        sizes[mu] = found
    return sizes, errors


def per_layer(continuum, make_pass, seed: int) -> tuple[dict, Tally, Tracer, dict]:
    """Run the first pass untraced (twice, the first to warm up), then traced."""
    cli = continuum.cli
    warmup, plain = Tally(), Tally()
    warmup.run(cli, make_pass(seed, 0))
    plain.run(cli, make_pass(seed, 0))
    plain.calibrate()
    universes = []

    def keep_universe(stat, args, result):
        universes.append((args[0], result))

    def count_coverings(stat, args, result):
        stat.items += len(result)

    tracer = Tracer(
        [getattr(continuum, layer) for layer in LAYERS],
        on_return={
            "binary_streams.enumerate_canonical": keep_universe,
            "finite_sets.covering_set": count_coverings,
        },
    )
    tracer.count_constructions("binary_streams.EPBS.built", continuum.binary_streams.EPBS)
    traced = Tally()
    try:
        traced.run(cli, make_pass(seed, 0))
    finally:
        tracer.remove()
    traced.calibrate()
    sizes, errors = _set_sizes(universes)
    traced.errors.extend(errors)
    streams = sum(len(result) for _, result in universes)  # over every trace command
    del universes

    stats = tracer.stats
    metrics = {f"{name}.calls": (stats[name].calls, "count") for name in COUNTED}
    metrics["cli.run.self_s"] = (stats["cli.run"].self_s, "s")
    metrics["cli.build_parser.self_s"] = (stats["cli.build_parser"].self_s, "s")
    for name in PER_STREAM:
        metrics[f"{name}.calls_per_stream"] = (stats[name].calls / streams if streams else 0.0, "calls/stream")
    raw = stats["binary_streams.enumerate_streams"].items
    metrics["binary_streams.enumerate_streams.items"] = (raw, "count")
    metrics["binary_streams.enumerate_streams.raw_per_canonical"] = (raw / streams if streams else 0.0, "raw/canonical")
    metrics["binary_streams.EPBS.built"] = (stats["binary_streams.EPBS.built"].calls, "count")
    metrics["finite_sets.covering_set.items"] = (stats["finite_sets.covering_set"].items, "count")
    for mu in TRACE_MUS:
        for key in ("B", "B_X", "B_S", "T"):
            metrics[f"sets.mu{mu}.{key}"] = (sizes.get(mu, {}).get(key, 0), "count")
    # Calibrated like the end-to-end times; on a workload with few wrapped
    # calls the overhead is below the noise and may come out negative.
    plain_s = sum(plain.latencies) * calibration.speed_factor(plain.kernel_times)
    traced_s = sum(traced.latencies) * calibration.speed_factor(traced.kernel_times)
    metrics["tracing_overhead_s"] = (traced_s - plain_s, "s")
    info = {
        "functions": {
            name: {"calls": s.calls, "self_s": s.self_s, "items": s.items}
            for name, s in sorted(stats.items())
            if s.calls
        },
        "untraced_busy_s": plain_s,
        "traced_busy_s": traced_s,
    }
    combined = Tally()
    for tally in (warmup, plain, traced):
        combined.attempted += tally.attempted
        combined.errors += tally.errors
    return metrics, combined, tracer, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        continuum = import_library()
        setup = None if args.trace else measure_setup()
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    make_pass = WORKLOADS[args.workload]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **run_info()}

    if args.trace:
        metrics, tally, tracer, layer_info = per_layer(continuum, make_pass, args.seed)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({**info, **layer_info, "spans": tracer.span_records()}, indent=1) + "\n"
        )
        for name, fn in layer_info["functions"].items():
            print(f"layer {name}: calls={fn['calls']} self_s={fn['self_s']:.6f}")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        tally = measure(continuum.cli, make_pass, args.seed, args.seconds)
        metrics = {}
        if not tally.errors:  # a wrong result voids the run, and may leave a role without samples
            factor = calibration.speed_factor(tally.kernel_times)
            metrics = end_to_end(tally, setup[0], factor)
            uncalibrated = end_to_end(tally, setup[1], 1.0)
            print(f"calibration: {len(tally.kernel_times)} kernel runs, speed factor {factor:.4f}")
            print("uncalibrated: " + ", ".join(f"{k}={v:.6g}" for k, (v, _) in uncalibrated.items()))
            if "median" in tally.by_role:
                growth = statistics.median(tally.by_role["tail"]) / statistics.median(tally.by_role["median"])
                print(f"growth (tail / median command): {growth:.4f}")
            else:
                p99 = statistics.quantiles(tally.latencies, n=100)[98]
                print(f"p99 beyond: {sum(x > p99 for x in tally.latencies)} of {len(tally.latencies)} samples")

    failed = len(tally.errors)
    for line in tally.errors[:20]:
        print(f"error: {line}")
    print(f"run: {json.dumps(info)}")
    print(f"error_rate: {failed / tally.attempted:.6f} ({failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
