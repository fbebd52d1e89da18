"""The derivation trace's cost as a curve over the bound μ.

Runs ``derivation_trace(μ)`` for each μ in three fresh Python processes
per source tree and records |B| (the canonical streams checked) and, of
the three, the least wall time and the least CPU time of the call and
the least peak RSS. Each ``--tree LABEL=DIR`` names a column and the
source tree it measures (default ``change=src``). Within each μ the
trees take turns, and the tree that runs first changes from turn to
turn, so a drift in the machine's speed falls on every tree alike. Each
tree is compiled first, so that no child compiles it, whatever state its
bytecode was in. A run fills its columns of the output file and keeps
the others. A column whose least wall time is more than 5% over its least
CPU time is marked ``"contended": true``: another process held the CPU,
so compare trees at that μ only where the two times agree::

    python3 tools/trace_curve.py --tree parent=/path/to/parent/src --tree change=src

Exits 1 when a trace does not pass, or when |B| at some μ differs from
the value already in the output file. A child that fails ends the run
at once with exit 1, after its stderr, and the output file is left as it
was.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3  # fresh processes per μ; the least of their numbers is kept
CONTENDED = 1.05  # a least wall time past this many times the least CPU time marks its column contended

# |B| is counted by its closed form: a trace passes only when the streams
# it walked are that many (step 25), and no second walk adds to the peak.
_CHILD = """
import json, resource, sys, time
from continuum.bijection import derivation_trace
from continuum.binary_streams import count_canonical
mu = int(sys.argv[1])
start, cpu_start = time.perf_counter(), time.process_time()
verdict = derivation_trace(mu).verdict
seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu_start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"B": count_canonical(mu), "verdict": verdict, "seconds": round(seconds, 3),
                  "cpu_seconds": round(cpu_seconds, 3), "peak_rss_mb": round(peak_rss_mb, 1)}))
"""


def measure(mu: int, src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(mu)], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        sys.exit(f"mu={mu}: the child exited with status {done.returncode}")
    return json.loads(done.stdout)


def tree(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(src)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu-min", type=int, default=8)
    parser.add_argument("--mu-max", type=int, default=16)
    parser.add_argument("--tree", type=tree, action="append", metavar="LABEL=DIR",
                        help="a column and the source tree to import continuum from; repeat to alternate trees")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_trace_curve.json")
    args = parser.parse_args(argv)
    trees = args.tree or [("change", ROOT / "src")]
    if len(dict(trees)) < len(trees):
        parser.error("each --tree needs its own LABEL")
    for _, src in trees:
        if not compileall.compile_dir(src, quiet=1):
            print(f"{src}: does not compile", file=sys.stderr)
            return 1

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = "python3 tools/trace_curve.py --mu-min 8 --mu-max 16 --tree LABEL=DIR [--tree LABEL=DIR ...]"
    doc["machine"] = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    rows = {row["mu"]: row for row in doc.get("curve", [])}
    failed, turns = False, itertools.count()
    for mu in range(args.mu_min, args.mu_max + 1):
        runs = {label: [] for label, _ in trees}
        for _ in range(RUNS):
            first = next(turns) % len(trees)
            for label, src in trees[first:] + trees[:first]:
                runs[label].append(measure(mu, src))
        row = rows.setdefault(mu, {"mu": mu, "B": runs[trees[0][0]][0]["B"]})
        for label, found_runs in runs.items():
            for found in found_runs:
                print(f"mu={mu} {label} |B|={found['B']} {found['seconds']} s {found['cpu_seconds']} s CPU "
                      f"{found['peak_rss_mb']} MB {found['verdict']}")
                if found["verdict"] != "pass" or found["B"] != row["B"]:
                    print(f"mu={mu}: verdict {found['verdict']}, |B| {found['B']} (recorded {row['B']})", file=sys.stderr)
                    failed = True
            row[label] = {key: min(found[key] for found in found_runs) for key in ("seconds", "cpu_seconds", "peak_rss_mb")}
            if row[label]["seconds"] > CONTENDED * row[label]["cpu_seconds"]:
                row[label]["contended"] = True
                print(f"mu={mu} {label}: wall time {row[label]['seconds']} s is more than 5% over CPU time "
                      f"{row[label]['cpu_seconds']} s; another process held the CPU, so this column is marked contended")
    doc["curve"] = [rows[mu] for mu in sorted(rows)]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
