"""Deterministic stub model for end-to-end tests.

The stub is a tiny executable generated at test time. Called as
``stub_model <sim_id>``, it reads ``params_<sim_id>.nml`` (namelist-style
``key = value,`` lines), sums every numeric value it finds, and writes the
sum as a single real token to ``results_<sim_id>.txt``. A missing config
exits 1, which exercises failure isolation in the dispatcher.

Concurrency accounting: when the environment variable STUB_COUNTER_DIR is
set, each instance increments a counter file in that directory on start,
sleeps STUB_SLEEP seconds (default 0.2), and decrements on exit. Updates
happen under a lock (atomic mkdir) with write-then-rename, and the peak
instance count is recorded in ``<dir>/high``, giving tests an independent
high-water mark for the dispatcher's parallelism bound.

Two flavors are generated: a POSIX sh script (default on POSIX systems)
and a Python script fallback for environments without a POSIX shell.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

__all__ = ["write_stub_model", "stub_command", "read_high_water"]

_SH_SCRIPT = r"""#!/bin/sh
# Stub model: sum the numeric values in params_<sim_id>.nml into
# results_<sim_id>.txt. See STUB_COUNTER_DIR / STUB_SLEEP for the optional
# concurrency accounting used by dispatcher tests.

sim_id="$1"
if [ -z "$sim_id" ]; then
    echo "usage: $0 sim_id" >&2
    exit 2
fi
cfg="params_${sim_id}.nml"
if [ ! -f "$cfg" ]; then
    echo "missing config $cfg" >&2
    exit 1
fi

lock() {
    while ! mkdir "$STUB_COUNTER_DIR/lock" 2>/dev/null; do sleep 0.01; done
}
unlock() {
    rmdir "$STUB_COUNTER_DIR/lock"
}
bump() {
    lock
    n=0
    [ -f "$STUB_COUNTER_DIR/count" ] && n=$(cat "$STUB_COUNTER_DIR/count")
    n=$((n + $1))
    printf '%s\n' "$n" > "$STUB_COUNTER_DIR/count.tmp.$$"
    mv "$STUB_COUNTER_DIR/count.tmp.$$" "$STUB_COUNTER_DIR/count"
    if [ "$1" = "+1" ]; then
        hw=0
        [ -f "$STUB_COUNTER_DIR/high" ] && hw=$(cat "$STUB_COUNTER_DIR/high")
        if [ "$n" -gt "$hw" ]; then
            printf '%s\n' "$n" > "$STUB_COUNTER_DIR/high.tmp.$$"
            mv "$STUB_COUNTER_DIR/high.tmp.$$" "$STUB_COUNTER_DIR/high"
        fi
    fi
    unlock
}

if [ -n "$STUB_COUNTER_DIR" ]; then
    bump +1
    sleep "${STUB_SLEEP:-0.2}"
fi

awk -F= '
    NF >= 2 {
        v = $2
        gsub(/[ \t\r,]/, "", v)
        if (v ~ /^-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$/) total += v
    }
    END {
        if (total == int(total)) printf "%.1f\n", total
        else printf "%.17g\n", total
    }
' "$cfg" > "results_${sim_id}.txt"

if [ -n "$STUB_COUNTER_DIR" ]; then
    bump -1
fi
"""

_PY_SCRIPT = r'''#!/usr/bin/env python3
"""Stub model (Python flavor); see the sh flavor for the behavior contract."""
import os
import re
import sys
import time

NUMERIC = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


def bump(root, delta):
    lock = os.path.join(root, "lock")
    while True:
        try:
            os.mkdir(lock)
            break
        except FileExistsError:
            time.sleep(0.001)
    try:
        count_path = os.path.join(root, "count")
        n = 0
        if os.path.exists(count_path):
            with open(count_path) as fh:
                n = int(fh.read())
        n += delta
        tmp = count_path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(f"{n}\n")
        os.replace(tmp, count_path)
        if delta > 0:
            high_path = os.path.join(root, "high")
            hw = 0
            if os.path.exists(high_path):
                with open(high_path) as fh:
                    hw = int(fh.read())
            if n > hw:
                tmp = high_path + f".tmp.{os.getpid()}"
                with open(tmp, "w") as fh:
                    fh.write(f"{n}\n")
                os.replace(tmp, high_path)
    finally:
        os.rmdir(lock)


def main():
    if len(sys.argv) < 2:
        print(f"usage: {sys.argv[0]} sim_id", file=sys.stderr)
        return 2
    sim_id = sys.argv[1]
    cfg = f"params_{sim_id}.nml"
    if not os.path.exists(cfg):
        print(f"missing config {cfg}", file=sys.stderr)
        return 1
    counter_dir = os.environ.get("STUB_COUNTER_DIR")
    if counter_dir:
        bump(counter_dir, +1)
        time.sleep(float(os.environ.get("STUB_SLEEP", "0.2")))
    total = 0.0
    with open(cfg, encoding="utf-8") as fh:
        for line in fh:
            if "=" not in line:
                continue
            value = line.split("=", 1)[1].strip().rstrip(",").strip()
            if NUMERIC.match(value):
                total += float(value)
    text = f"{total:.1f}" if total == int(total) else repr(total)
    with open(f"results_{sim_id}.txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    if counter_dir:
        bump(counter_dir, -1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


def write_stub_model(directory: Path | str, flavor: str | None = None) -> Path:
    """Write the stub model script into `directory` and return its path.

    `flavor` is "sh" or "py"; the default picks sh on POSIX systems and the
    Python fallback elsewhere.
    """
    if flavor is None:
        flavor = "sh" if os.name == "posix" else "py"
    if flavor not in ("sh", "py"):
        raise ValueError(f"unknown stub flavor {flavor!r}")
    directory = Path(directory)
    if flavor == "sh":
        path = directory / "stub_model.sh"
        path.write_text(_SH_SCRIPT, encoding="utf-8")
    else:
        path = directory / "stub_model.py"
        path.write_text(_PY_SCRIPT, encoding="utf-8")
    path.chmod(0o755)
    return path


def stub_command(script: Path) -> str:
    """Command template (with a {sim_id} placeholder) to run the stub."""
    if script.suffix == ".py":
        return f"{sys.executable} {script.name} {{sim_id}}"
    return f"sh {script.name} {{sim_id}}"


def read_high_water(counter_dir: Path | str) -> int:
    """Peak concurrent stub instances recorded in a counter directory."""
    high = Path(counter_dir) / "high"
    if not high.exists():
        return 0
    return int(high.read_text())
