"""The derivation trace's cost as a curve over the bound μ.

Runs ``derivation_trace(μ)`` for each μ in three fresh Python processes
and records |B| (the canonical streams checked), and the least wall time
of the call and the least peak RSS of the three. The source tree is
compiled first, so that no child compiles it, whatever state its
bytecode was in. Each run fills one column (``--label``)
of the output file and keeps the others, so one file holds the numbers
of two source trees measured on the same machine::

    python3 tools/trace_curve.py --label parent --src /path/to/parent/src
    python3 tools/trace_curve.py --label change

Exits 1 when a trace does not pass, or when |B| at some μ differs from
the value already in the output file. A child that fails ends the run
at once with exit 1, after its stderr, and the output file is left as it
was.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3  # fresh processes per μ; the least of their numbers is kept

# |B| is counted by its closed form: a trace passes only when the streams
# it walked are that many (step 25), and no second walk adds to the peak.
_CHILD = """
import json, resource, sys, time
from continuum.bijection import derivation_trace
from continuum.binary_streams import count_canonical
mu = int(sys.argv[1])
start = time.perf_counter()
verdict = derivation_trace(mu).verdict
seconds = time.perf_counter() - start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"B": count_canonical(mu), "verdict": verdict,
                  "seconds": round(seconds, 3), "peak_rss_mb": round(peak_rss_mb, 1)}))
"""


def measure(mu: int, src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(mu)], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        sys.exit(f"mu={mu}: the child exited with status {done.returncode}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu-min", type=int, default=8)
    parser.add_argument("--mu-max", type=int, default=16)
    parser.add_argument("--label", default="change", help="column the numbers go to")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import continuum from")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_trace_curve.json")
    args = parser.parse_args(argv)
    if not compileall.compile_dir(args.src, quiet=1):
        print(f"{args.src}: does not compile", file=sys.stderr)
        return 1

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = "python3 tools/trace_curve.py --mu-min 8 --mu-max 16 --label LABEL [--src DIR]"
    doc["machine"] = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    rows = {row["mu"]: row for row in doc.get("curve", [])}
    failed = False
    for mu in range(args.mu_min, args.mu_max + 1):
        runs = [measure(mu, args.src) for _ in range(RUNS)]
        row = rows.setdefault(mu, {"mu": mu, "B": runs[0]["B"]})
        for found in runs:
            print(f"mu={mu} |B|={found['B']} {found['seconds']} s {found['peak_rss_mb']} MB {found['verdict']}")
            if found["verdict"] != "pass" or found["B"] != row["B"]:
                print(f"mu={mu}: verdict {found['verdict']}, |B| {found['B']} (recorded {row['B']})", file=sys.stderr)
                failed = True
        row[args.label] = {
            "seconds": min(found["seconds"] for found in runs),
            "peak_rss_mb": min(found["peak_rss_mb"] for found in runs),
        }
    doc["curve"] = [rows[mu] for mu in sorted(rows)]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
