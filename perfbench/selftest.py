"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 and prints ``ok`` when every check holds. It checks that

* the same seed gives the same argv lists, and another seed other ones;
* the reference's closed-form set sizes match a brute-force count;
* the output checker flags a corrupted result: ``bijection.forward``
  with its t_2k / t_2k+1 branches swapped, run through the real CLI;
* the tracer counts nested calls and restores every binding it patched.
"""

from __future__ import annotations

import itertools
import sys

import reference
import run
import workloads
from spans import Tracer


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def check_seeding() -> None:
    first = workloads.query_argvs(7, 0)
    expect(first == workloads.query_argvs(7, 0), "same seed gave different queries")
    expect(first != workloads.query_argvs(8, 0), "another seed gave the same queries")
    expect(first != workloads.query_argvs(7, 1), "passes of one seed repeat")
    for name, make_pass in workloads.WORKLOADS.items():
        argvs = [c.argv for c in make_pass(3, 0)]
        expect(argvs == [c.argv for c in make_pass(3, 0)], f"{name}: argv lists differ")


def check_set_sizes(max_mu: int = 8) -> None:
    canonical = set()
    for size in range(1, max_mu + 1):
        for period_len in range(1, size + 1):
            for bits in itertools.product("01", repeat=size):
                word = "".join(bits)
                canonical.add(reference.canon(word[: size - period_len], word[size - period_len :]))
        found = {
            "B": len(canonical),
            "B_X": sum(not reference.is_redundant(s) for s in canonical),
            "B_S": sum(reference.is_redundant(s) for s in canonical),
            "T": sum(reference.in_chain(s) for s in canonical),
        }
        expect(found == reference.bounded_set_sizes(size), f"set sizes at mu={size}: {found}")


def check_corruption_is_flagged(continuum) -> None:
    bijection = continuum.bijection
    # t_0 .. t_7 and their images under forward, both branches.
    chain = [reference.fmt(reference.t_stream(k)) for k in range(8)]
    commands = []
    for t in chain:
        argv = ["map", "forward", t]
        commands.append(workloads.Command(argv, reference.expect_query(argv).mismatch, 1))
    clean = run.Tally()
    clean.run(continuum.cli, commands)
    expect(not clean.errors, f"unmodified library flagged: {clean.errors}")

    original = bijection.forward

    def swapped(stream):
        position = bijection.t_index(stream)
        if position is None:
            return original(stream)
        k, odd = divmod(position, 2)
        return bijection.s_enumerate(k) if odd else bijection.t_enumerate(k)

    bijection.forward = swapped
    try:
        corrupted = run.Tally()
        corrupted.run(continuum.cli, commands)
    finally:
        bijection.forward = original
    expect(len(corrupted.errors) == len(chain), f"swapped forward flagged {len(corrupted.errors)} of {len(chain)}")


def check_tracer(continuum) -> None:
    modules = [getattr(continuum, layer) for layer in run.LAYERS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    post_init = vars(continuum.binary_streams.EPBS)["__post_init__"]
    tracer = Tracer(modules)
    tracer.count_constructions("binary_streams.EPBS.built", continuum.binary_streams.EPBS)
    try:
        result = continuum.cli.run(["map", "forward", "01(0)"])
    finally:
        tracer.remove()
    expect(result.output == "1(0)", f"traced forward gave {result.output!r}")
    stats = tracer.stats
    expect(stats["cli.run"].calls == 1 and stats["bijection.forward"].calls == 1, "call counts")
    expect(stats["binary_streams.canonicalize"].calls >= 3, "nested canonicalize calls not counted")
    expect(all(s.self_s >= 0 for s in stats.values()), "negative self time")
    expect(stats["binary_streams.EPBS.built"].calls > 0, "EPBS constructions not counted")
    expect([s[1] for s in sorted(tracer.spans)][:2] == ["cli.run", "cli.build_parser"], "span order")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    expect(before == after, "tracer left a patched binding behind")
    expect(vars(continuum.binary_streams.EPBS)["__post_init__"] is post_init, "EPBS.__post_init__ not restored")


def main() -> int:
    continuum = run.import_library()
    check_seeding()
    check_set_sizes()
    check_corruption_is_flagged(continuum)
    check_tracer(continuum)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
