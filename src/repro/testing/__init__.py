"""Differential fuzzing harness for the SZx codec.

Three layers, composable or driven end to end by :func:`run_fuzz`:

* :mod:`repro.testing.generators` — seeded adversarial float fields
  (denormals, signed zeros, huge/tiny exponents, constant runs, step
  edges, …) that stress the block classifier and the XOR-leading-zero
  encoder;
* :mod:`repro.testing.mutators` — seeded stream corruptions
  (truncation, bit flips, byte rewrites, section swaps) for exercising
  the hardened decode path;
* :mod:`repro.testing.oracles` — the properties every iteration must
  satisfy: pointwise error bound, scalar/kernel/thread-pool byte
  identity, decode equality across those paths, and fail-closed
  handling of corrupted streams.

:mod:`repro.testing.faults` is the deterministic fault-injection
registry: production code exposes named sites via
``faults.maybe_fail("site")`` and tests arm them with
``faults.inject(...)`` (used by the ``repro.serve`` robustness tests).

:mod:`repro.testing.sanitizers` is the runtime complement of the
``repro.analyze`` static rules: :func:`~sanitizers.slow_callback_tripwire`
fails a block whose event loop ran a callback past the threshold, and
:func:`~sanitizers.shm_leak_auditor` fails a block that leaves new
``/dev/shm`` segments behind.  ``REPRO_SANITIZE=1`` arms both for a
whole pytest run (see ``tests/conftest.py`` and the CI
``sanitizer-smoke`` job).

Runnable from the CLI as ``szx fuzz --seed N --iters M``; byte-for-byte
reproducible given the seed.
"""

from . import faults
from .fuzz import FuzzFailure, FuzzReport, run_fuzz
from .sanitizers import SanitizerError, shm_leak_auditor, slow_callback_tripwire
from .generators import GENERATORS, generate_field
from .mutators import MUTATORS, mutate_stream
from .oracles import check_error_bound, check_mutation, check_round_trip

__all__ = [
    "faults",
    "SanitizerError",
    "slow_callback_tripwire",
    "shm_leak_auditor",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "GENERATORS",
    "generate_field",
    "MUTATORS",
    "mutate_stream",
    "check_error_bound",
    "check_mutation",
    "check_round_trip",
]
