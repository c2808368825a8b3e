"""The committed determinism golden must match a fresh capture exactly.

``tests/golden/determinism_golden.json`` fingerprints a seeded grid of
smoke cells (both policies on the sectored cache, DAP on Alloy and on
eDRAM) — per-core cycles/instructions, every channel counter, the
telemetry sample stream, and the SHA-256 of the JSONL trace bytes. It
was captured before the simulator hot-path work and is the contract
that optimization changes *wall clock only*: any change to event order,
stats, or trace bytes shows up as a diff here.

Regenerating the golden (``python -m repro.obs.golden --out ...``) is
only legitimate when a change is *supposed* to alter simulated
behaviour — never to make an optimization pass.
"""

import tempfile
from pathlib import Path

from repro.obs.golden import capture_committed, diff_goldens, load_golden

GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_golden.json"


def test_fresh_capture_matches_committed_golden():
    # trace_dir matters: with it, each cell also runs traced and the
    # capture includes the telemetry fingerprint and trace hash, so the
    # comparison covers observation byte-identity too.
    with tempfile.TemporaryDirectory() as tmp:
        fresh = capture_committed(trace_dir=tmp)
    committed = load_golden(GOLDEN_PATH)
    diffs = diff_goldens(committed, fresh)
    assert diffs == [], "simulated behaviour drifted from the golden:\n" + \
        "\n".join(diffs)
