"""The always-available pure-stdlib reference backend.

This *is* the semantics: every other backend must match its output bit
for bit.  Traces come straight from
:func:`~repro.workloads.synthetic.generate_trace`; warmup is the shared
bulk path of :meth:`~repro.backends.base.SimBackend.warm`.
"""

from __future__ import annotations

from repro.backends.base import SimBackend
from repro.workloads.synthetic import WorkloadProfile, generate_trace


class PythonBackend(SimBackend):
    """Zero-dependency default; the bit-identity reference."""

    __slots__ = ()

    name = "python"

    def _build_trace(self, profile: WorkloadProfile, num_refs: int,
                     base_line: int, scale: float, seed: int) -> list:
        return list(generate_trace(profile, num_refs, base_line=base_line,
                                   scale=scale, seed=seed))
