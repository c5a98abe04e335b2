#!/usr/bin/env python3
"""Pins the paper's evaluation to checked-in golden artifacts.

Run the seven paper binaries first (`table1`, `table2`, `table3`,
`wastage`, `exhaustion`, `ablation` and `soundness`); each writes its
`BENCH_<name>.json` to the working directory. Then, from that directory:

    python3 crates/bench/golden/check.py            # compare, exit 1 on a diff
    python3 crates/bench/golden/check.py --update   # rewrite the goldens

Host wall-clock fields (`host_wall_ms`, `host_exec_per_sec`) differ from
run to run and are dropped before comparing and before writing. Every
other field is simulated and deterministic, so a comparison fails when
any JSON path differs from the golden, printing for each artifact how
many paths differ and the first 20 of them.

Table 1's invariants are checked in both modes, so an update cannot write
a golden that breaks them: the five configurations ran, the overhead
splits exactly into syscall and TLB cycles, and no configuration sampled.
"""

import json
import os
import sys

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
ARTIFACTS = ("table1", "table2", "table3", "wastage", "exhaustion", "ablation", "soundness")
HOST_FIELDS = {"host_wall_ms", "host_exec_per_sec"}
SHOWN_DIFFS = 20


def strip_host(value):
    if isinstance(value, dict):
        return {k: strip_host(v) for k, v in value.items() if k not in HOST_FIELDS}
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


def diffs(golden, actual, path="$"):
    """Every JSON path whose value differs between the two, in key order."""
    if type(golden) is not type(actual):
        yield path
    elif isinstance(golden, dict):
        for key in sorted(set(golden) | set(actual)):
            if key not in golden or key not in actual:
                yield f"{path}.{key}"
            else:
                yield from diffs(golden[key], actual[key], f"{path}.{key}")
    elif isinstance(golden, list):
        for i, (g, a) in enumerate(zip(golden, actual)):
            yield from diffs(g, a, f"{path}[{i}]")
        for i in range(min(len(golden), len(actual)), max(len(golden), len(actual))):
            yield f"{path}[{i}]"
    elif golden != actual:
        yield path


def table1_violation(artifact):
    """The first broken Table 1 invariant, or None."""
    if artifact["benchmark"] != "table1" or artifact["schema_version"] != 1:
        return "not a schema-1 table1 artifact"
    rows = artifact["rows"]
    if len(rows) < 9:
        return f"expected utilities + servers, got {len(rows)} rows"
    for row in rows:
        name = row["workload"]
        for key in ("native", "base", "pa", "pa_dummy", "ours"):
            if key not in row["configs"] or row["configs"][key]["cycles"] <= 0:
                return f"{name}: no {key} run"
        dec = row["decomposition"]
        if dec["syscall_cycles"] + dec["tlb_cycles"] != dec["overhead_cycles"]:
            return f"{name}: decomposition does not add up"
        if row["ratio1"] < 1.0:
            return f"{name}: ratio1 below 1"
        for key, cfg in row["configs"].items():
            if any(cfg["sampling"].values()):
                return f"{name}: {key} sampled"
    return None


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit(__doc__)
    failed = False
    for name in ARTIFACTS:
        with open(f"BENCH_{name}.json") as f:
            actual = strip_host(json.load(f))
        violation = table1_violation(actual) if name == "table1" else None
        if violation:
            print(f"{name}: {violation}")
            failed = True
            continue
        golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
        if update:
            with open(golden_path, "w") as f:
                json.dump(actual, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"{name}: golden written")
            continue
        with open(golden_path) as f:
            golden = json.load(f)
        found = list(diffs(golden, actual))
        if found:
            shown = found[:SHOWN_DIFFS]
            print(f"{name}: {len(found)} paths differ from the golden; the first {len(shown)}:")
            for path in shown:
                print(f"  {path}")
            failed = True
        else:
            print(f"{name}: matches the golden")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
