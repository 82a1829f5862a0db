#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about half a minute).

    python3 perfbench/selftest.py

Checks, on small inputs of the real workloads:
  - join_storm at 1 and 4 shards computes the same digest, and so does
    squirrel (its app state crosses shard barriers);
  - the same seed gives the same inputs and digest, another seed gives
    different inputs and a different digest;
  - a traced run (forwarding decorators around the delay oracle and the
    app) computes the same digest as an untraced one, so the decorators
    change nothing.
Exits 0 when every check holds, 1 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import run  # noqa: E402


def smoke(workload, seed, *extra):
    return run.run_child(["run", "--workload", workload, "--seed", str(seed),
                          "--scale", "smoke", *extra], 120)


def main():
    run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    js1 = smoke("join_storm", 1)
    js4 = smoke("join_storm_s4", 1)
    check(js4["shards"] == 4 and js1["digest"] == js4["digest"],
          f"join_storm 1 vs 4 shards: {js1['digest']} / {js4['digest']}")
    sq1 = smoke("squirrel", 1)
    sq4 = smoke("squirrel", 1, "--shards", "4")
    check(sq4["shards"] == 4 and sq1["digest"] == sq4["digest"],
          f"squirrel 1 vs 4 shards: {sq1['digest']} / {sq4['digest']}")

    again = smoke("join_storm", 1)
    check(again["inputs"] == js1["inputs"] and again["digest"] == js1["digest"],
          "join_storm same seed: same inputs and digest")
    other = smoke("join_storm", 2)
    check(other["inputs"] != js1["inputs"] and other["digest"] != js1["digest"],
          "join_storm other seed: different inputs and digest")

    for name, base in (("join_storm", js1), ("squirrel", sq1)):
        traced = smoke(name, 1, "--traced", "1")
        hooks = traced["upcalls"] if name == "squirrel" else 1
        check(traced["digest"] == base["digest"] and
              traced["delay_calls"] > 0 and hooks > 0,
              f"{name} traced vs untraced: {traced['digest']} / "
              f"{base['digest']} ({traced['delay_calls']} delay calls, "
              f"{traced['upcalls']} upcalls)")

    print("self-test: " + ("passed" if not failures else
                           f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.GateError as e:
        print(f"self-test: {e}", file=sys.stderr)
        sys.exit(1)
