"""Cost of the t-set-dependent work of `char --n 6`, for every rank-6 t-set.

Run from the root of a checkout:

    python3 bench/tsets.py [ROUNDS]

The group table and conjugacy classes are the same for every t-set, so they
are built once and kept; every other cache of the package is cleared before
each call.  Each t-set's CPU time is the minimum over ROUNDS (default 5)
calls, interleaved across t-sets so that a slow spell of the machine does
not favour one of them.  The seed of the scan-n6 workload picks from t-sets
whose figures agree within 1% (``run.SCAN_TSETS``).
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from bcsplines import characters, cli, group, hessenberg, roots, splines, symfunc  # noqa: E402

N = 6


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    group.group_table(N)
    group.conjugacy_classes(N)
    shared = {id(group.group_table), id(group._conjugacy_classes_cached)}
    caches = [
        obj
        for mod in (group, hessenberg, splines, symfunc, characters, roots)
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear") and id(obj) not in shared
    ]
    tsets = [",".join(f"t{i + 1}" for i in range(N) if mask >> i & 1) for mask in range(2**N)]
    cpu: dict[str, list[float]] = {t: [] for t in tsets}
    for _ in range(rounds):
        for tset in tsets:
            for cache in caches:
                cache.cache_clear()
            start = time.process_time()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["char", "--n", str(N), "--tset", tset, "--format", "json"])
            cpu[tset].append(time.process_time() - start)
    for tset, times in sorted(cpu.items(), key=lambda kv: min(kv[1])):
        print(f"{{{tset}}}\t{min(times):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
