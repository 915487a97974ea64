"""repro.observe.perf — the environment fingerprint for benchmark records.

:mod:`record` holds :class:`EnvFingerprint`, which ``perfbench``
stamps on every workload record.  ``perfbench/`` is the repo's one
performance harness (see ``perfbench/README.md``).
"""

from .record import EnvFingerprint

__all__ = ["EnvFingerprint"]
