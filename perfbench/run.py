#!/usr/bin/env python3
"""Build the biosense benchmark from source and run one workload.

    python3 perfbench/run.py --workload <neuro_dense|neuro_sparse_lossy|fleet_mixed> \
        --seed <n> --seconds <s> --trace <0|1> [--inject <kind>]

Run from the repository root. The benchmark program (perfbench/cpp) and the library
sources it links (src/) are compiled in Release with BIOSENSE_OBS off into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set).
The last line of stdout is the benchmark's JSON result; build output and
diagnostics go to stderr. A traced run lists every per-layer metric of
BENCHMARK.json: those of layers the workload never enters read 0 (no calls,
no time, no bytes). Exits non-zero, printing no result, when the build or
the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    src = root / "perfbench"
    configure = ["cmake", "-S", str(src), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "Makefile").exists():
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", "2"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def fill_layers(root: Path, result: dict) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        result["metrics"].setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["neuro_dense", "neuro_sparse_lossy", "fleet_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject", default="none",
                        choices=["none", "code_bit", "swap_digests", "drop_record",
                                 "ber_mismatch"])
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    try:
        binary = build(root, build_root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--inject", args.inject, "--out-dir", str(root / ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: run printed no result", file=sys.stderr)
        return 1
    if args.trace == "1":
        result = json.loads(lines[-1])
        fill_layers(root, result)
        lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
