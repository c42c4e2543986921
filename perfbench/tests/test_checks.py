#!/usr/bin/env python3
"""Shows that each of the benchmark's correctness checks can fail.

Each case runs one short workload twice with the same seed: clean, and
with one corruption injected into the data a check reads, which must be
reported as more failed operations than the clean run. (The clean
neuro_dense run already fails its field-tracking blocks: the decoded scale
is off unit slope, see perfbench/README.md.)

    python3 perfbench/tests/test_checks.py        (from the repository root)
"""
import functools
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


@functools.lru_cache(maxsize=None)
def run(workload: str, inject: str, trace: str = "0", seed: int = 7,
        seconds: float = 1.0) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace, "--inject", inject],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


class ChecksCanFail(unittest.TestCase):
    def assert_detected(self, workload: str, inject: str) -> None:
        clean = run(workload, "none")
        self.assertTrue(clean["correct"])
        bad = run(workload, inject)
        self.assertTrue(bad["correct"])
        self.assertGreater(bad["failed"], clean["failed"],
                           f"{inject} on {workload} went unnoticed")

    def test_flipped_code_bit(self) -> None:
        # Lossless check: decoded frames against a twin chip's direct capture.
        self.assert_detected("neuro_dense", "code_bit")

    def test_swapped_session_digests(self) -> None:
        # Isolation check: fleet digests against sessions replayed alone.
        self.assert_detected("fleet_mixed", "swap_digests")

    def test_dropped_record(self) -> None:
        # Poll model and record-index check on the fleet.
        self.assert_detected("fleet_mixed", "drop_record")

    def test_flip_count_off_binomial(self) -> None:
        # First-attempt CRC rejections tested against a BER 1.5x the link's.
        self.assert_detected("neuro_sparse_lossy", "ber_mismatch")


WORKLOADS = ("neuro_dense", "neuro_sparse_lossy", "fleet_mixed")


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            for key, trace in (("end_to_end", "0"), ("per_layer", "1")):
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = run(workload, "none", trace)["metrics"]
                self.assertEqual(set(got), set(want), f"{workload} {key}")
                for name, metric in got.items():
                    self.assertEqual(metric["unit"], want[name], f"{workload} {name}")


class FailedShare(unittest.TestCase):
    def test_same_share_on_every_seed_and_length(self) -> None:
        # Runs attempt whole blocks of the same operations, so the share of
        # failed operations does not depend on the seed or the run length.
        for workload in WORKLOADS:
            a = run(workload, "none")
            b = run(workload, "none", seed=8, seconds=2.0)
            self.assertEqual(a["failed"] * b["attempted"], b["failed"] * a["attempted"],
                             workload)


class WirePartsAgree(unittest.TestCase):
    def test_parts_sum_to_whole(self) -> None:
        # The encode/frame-bits/link/lenient-decode/merge/decode spans of the
        # traced layer phase, summed, against FrameWire::process timed on
        # the same frames: two totals from independent calls.
        for workload in ("neuro_dense", "neuro_sparse_lossy"):
            ratio = run(workload, "none", "1")["metrics"]["wire.parts_over_whole"]["value"]
            self.assertGreater(ratio, 0.9, workload)
            self.assertLess(ratio, 1.1, workload)


if __name__ == "__main__":
    unittest.main()
