"""Vectorized trace materialization (numpy).

Entropy stays in CPython: the RNG draw sequence is produced by
:func:`~repro.workloads.synthetic.trace_columns` on the exact
``random.Random`` state the generator uses, so the random stream — and
therefore the trace SHA-256 and every simulated result — is
byte-identical to the python backend.  numpy only does the entropy-free
tail: ``line = base + rel`` offsetting and the ``draw < wf`` write
classification in one vector op each, then one ``zip`` into the tuple
list the cores consume (``int64.tolist()`` round-trips to exact Python
ints).  Warmup is the shared bulk path of
:meth:`~repro.backends.base.SimBackend.warm`; numpy vectorizes trace
materialization only.

numpy itself is imported lazily at construction, so this module is
importable (e.g. by the slots lint) without the ``[fast]`` extra.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import SimBackend, TraceStore
from repro.errors import ConfigError
from repro.workloads.synthetic import WorkloadProfile, trace_columns


class NumpyBackend(SimBackend):
    """Vectorized materialization; bit-identical to :class:`PythonBackend`."""

    __slots__ = ("np",)

    name = "numpy"

    def __init__(self, store: Optional[TraceStore] = None) -> None:
        try:
            import numpy
        except ImportError as exc:
            raise ConfigError(
                "the numpy backend needs numpy (install the [fast] extra); "
                "use --backend auto to fall back to the python backend"
            ) from exc
        super().__init__(store)
        self.np = numpy

    # -- traces --------------------------------------------------------
    def _build_trace(self, profile: WorkloadProfile, num_refs: int,
                     base_line: int, scale: float, seed: int) -> list:
        np = self.np
        gaps, draws, rels = trace_columns(profile, num_refs, scale=scale,
                                          seed=seed)
        lines = np.asarray(rels, dtype=np.int64)
        if base_line:
            lines += base_line
        writes = np.asarray(draws) < profile.write_fraction
        return list(zip(gaps, writes.tolist(), lines.tolist()))
