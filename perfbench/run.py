#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sinker-steps --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run
document (manifest, every operation, every failed check) is written to
``perfbench/out/``.  See ``perfbench/NOTES.md`` for what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sinker-steps", "rift-steps")


def pin_environment() -> None:
    """Make every run see the same environment.

    Clears every ``REPRO_*`` variable the program reads (workers, backend,
    timeline, flight recorder, progress line, kernel switches, machine
    model), keeps the compiled-kernel cache and compiler scratch files
    inside the checkout, and holds BLAS to one thread so the load is the
    workload's own threads.  Must run before numpy is imported.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CKERNEL_CACHE"] = str(CACHE / "ckernel")
    os.environ["TMPDIR"] = str(CACHE / "tmp")
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def _summary(doc: dict) -> list[str]:
    res, m = doc["result"], doc["result"]["metrics"]
    man = doc["manifest"]
    frac = res["failed"] / res["attempted"]
    lines = [
        f"workload {man['workload']} seed {man['seed']} trace {int(man['trace'])}: "
        f"{res['attempted']} operations, {res['failed']} failed "
        f"(failed_frac {frac:.3g})",
        f"inputs {man['input_digest']}  final state {man['state_digest']}  "
        f"compiled kernel {'loaded' if man['ckernel_available'] else 'not loaded'}",
    ]
    if not man["trace"]:
        lines.append(
            f"setup_s {m['setup_s']['value']:.4g} s  step_s {m['step_s']['value']:.4g} s  "
            f"krylov_its {m['krylov_its']['value']:.4g}  "
            f"newton_its {m['newton_its']['value']:.4g}  "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.4g} MB  failed_frac {frac:.3g}"
        )
    else:
        lines += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    lines += [f"FAILED: {f}" for f in doc["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    doc = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    print("\n".join(_summary(doc)))
    print(json.dumps(doc["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
