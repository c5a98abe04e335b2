#!/usr/bin/env python3
"""Pins the paper's Tables 1-3 to checked-in golden artifacts.

Run the `table1`, `table2` and `table3` binaries first; each writes its
`BENCH_<name>.json` to the working directory. Then, from that directory:

    python3 crates/bench/golden/check.py            # compare, exit 1 on a diff
    python3 crates/bench/golden/check.py --update   # rewrite the goldens

Host wall-clock fields (`host_wall_ms`, `host_exec_per_sec`) differ from
run to run and are dropped before comparing and before writing. Every
other field is simulated and deterministic, so a comparison fails with
the first JSON path whose value differs from the golden.
"""

import json
import os
import sys

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
TABLES = ("table1", "table2", "table3")
HOST_FIELDS = {"host_wall_ms", "host_exec_per_sec"}


def strip_host(value):
    if isinstance(value, dict):
        return {k: strip_host(v) for k, v in value.items() if k not in HOST_FIELDS}
    if isinstance(value, list):
        return [strip_host(v) for v in value]
    return value


def first_diff(golden, actual, path="$"):
    if type(golden) is not type(actual):
        return path
    if isinstance(golden, dict):
        for key in sorted(set(golden) | set(actual)):
            if key not in golden or key not in actual:
                return f"{path}.{key}"
            found = first_diff(golden[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list):
        for i, (g, a) in enumerate(zip(golden, actual)):
            found = first_diff(g, a, f"{path}[{i}]")
            if found:
                return found
        return f"{path}[{min(len(golden), len(actual))}]" if len(golden) != len(actual) else None
    return None if golden == actual else path


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit(__doc__)
    failed = False
    for table in TABLES:
        with open(f"BENCH_{table}.json") as f:
            actual = strip_host(json.load(f))
        golden_path = os.path.join(GOLDEN_DIR, f"{table}.json")
        if update:
            with open(golden_path, "w") as f:
                json.dump(actual, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"{table}: golden written")
            continue
        with open(golden_path) as f:
            golden = json.load(f)
        diff = first_diff(golden, actual)
        if diff:
            print(f"{table}: differs from the golden at {diff}")
            failed = True
        else:
            print(f"{table}: matches the golden")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
