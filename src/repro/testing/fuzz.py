"""The differential fuzz driver: generators × decode paths × mutators.

One :func:`run_fuzz` iteration:

1. draw a generator, dtype, size, block size and error bound from the
   seeded RNG and synthesize a field;
2. run the round-trip oracle (scalar reference vs fused kernels vs
   thread pool byte identity, decode agreement, pointwise bound);
3. compress the field *with the CRC32 footer*, apply a batch of seeded
   mutations, and check each mutant decodes fail-closed.

Everything derives from one ``np.random.default_rng(seed)``, so a run
is byte-for-byte reproducible: same seed, same draws, same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.api import compress, decompress
from .generators import GENERATORS, generate_field
from .mutators import MUTATORS, mutate_stream
from .oracles import (
    check_baseline_truncations,
    check_mutation,
    check_round_trip,
)

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]

_DTYPES = (np.float32, np.float64)
_BLOCK_SIZES = (1, 7, 64, 128, 1000)
_BOUNDS = (1e-2, 1e-3, 1e-4, 1e-6)
_MODES = ("abs", "rel")
_WORKERS = (1, 2, 3, 16)


@dataclass
class FuzzFailure:
    """One oracle violation, with enough context to replay it."""

    iteration: int
    kind: str  # "divergence" | "bound" | "robustness"
    generator: str
    dtype: str
    n: int
    block_size: int
    detail: str

    def __str__(self) -> str:
        return (
            f"[iter {self.iteration}] {self.kind}: {self.detail} "
            f"(generator={self.generator}, dtype={self.dtype}, "
            f"n={self.n}, block_size={self.block_size})"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    seed: int
    iterations: int = 0
    mutants_tested: int = 0
    truncations_tested: int = 0
    divergences: list = field(default_factory=list)
    bound_violations: list = field(default_factory=list)
    robustness_failures: list = field(default_factory=list)
    baseline_failures: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return (
            self.divergences
            + self.bound_violations
            + self.robustness_failures
            + self.baseline_failures
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz seed={self.seed}: {self.iterations} iterations, "
            f"{self.mutants_tested} mutants, "
            f"{self.truncations_tested} baseline truncations — {status} "
            f"({len(self.divergences)} divergences, "
            f"{len(self.bound_violations)} bound violations, "
            f"{len(self.robustness_failures)} robustness failures, "
            f"{len(self.baseline_failures)} baseline-decoder failures)"
        )


def _classify(problem: str) -> str:
    if "bound violated" in problem:
        return "bound"
    return "divergence"


def run_fuzz(
    seed: int = 0,
    iters: int = 50,
    *,
    max_n: int = 2048,
    mutants_per_iter: int = 8,
    log=None,
) -> FuzzReport:
    """Run *iters* differential-fuzz iterations from *seed*.

    Parameters
    ----------
    seed, iters:
        The RNG seed and iteration count; together they fully determine
        the run.
    max_n:
        Largest field size drawn (sizes 0/1/boundary cases are always in
        the pool).
    mutants_per_iter:
        Corrupted copies of each iteration's checksummed stream to test.
    log:
        Optional callable (e.g. ``print``) for per-failure reporting.
    """
    rng = np.random.default_rng(seed)
    report = FuzzReport(seed=int(seed))
    gen_names = sorted(GENERATORS)
    mut_names = sorted(MUTATORS)

    for it in range(int(iters)):
        gen_name = gen_names[int(rng.integers(0, len(gen_names)))]
        dtype = _DTYPES[int(rng.integers(0, len(_DTYPES)))]
        block_size = _BLOCK_SIZES[int(rng.integers(0, len(_BLOCK_SIZES)))]
        # Boundary sizes get explicit weight alongside uniform draws.
        edge_sizes = (0, 1, block_size - 1, block_size, block_size + 1)
        if rng.random() < 0.3:
            n = int(edge_sizes[int(rng.integers(0, len(edge_sizes)))])
        else:
            n = int(rng.integers(0, max_n + 1))
        n = max(0, min(n, max_n))
        err_bound = _BOUNDS[int(rng.integers(0, len(_BOUNDS)))]
        mode = _MODES[int(rng.integers(0, len(_MODES)))]
        workers = _WORKERS[int(rng.integers(0, len(_WORKERS)))]

        data = generate_field(gen_name, rng, n, dtype)
        ctx = dict(
            iteration=it,
            generator=gen_name,
            dtype=np.dtype(dtype).name,
            n=n,
            block_size=block_size,
        )

        problems = check_round_trip(
            data, err_bound, mode=mode, block_size=block_size,
            workers=workers, checksum=bool(rng.integers(0, 2)),
        )
        for p in problems:
            kind = _classify(p)
            failure = FuzzFailure(kind=kind, detail=p, **ctx)
            target = (
                report.bound_violations if kind == "bound"
                else report.divergences
            )
            target.append(failure)
            if log:
                log(str(failure))

        # Corruption robustness on the checksummed stream: every mutant
        # must decode fail-closed.
        stream = compress(data, err_bound, mode=mode, block_size=block_size,
                          checksum=True)
        # The fail-closed contract compares against what the intact
        # stream decodes to (the lossy reconstruction), not the input.
        reference = decompress(stream).reshape(-1)
        for _ in range(int(mutants_per_iter)):
            mut_name = mut_names[int(rng.integers(0, len(mut_names)))]
            mutant = mutate_stream(mut_name, rng, stream)
            report.mutants_tested += 1
            for p in check_mutation(mutant, reference, checksummed=True):
                failure = FuzzFailure(
                    kind="robustness", detail=f"{mut_name}: {p}", **ctx
                )
                report.robustness_failures.append(failure)
                if log:
                    log(str(failure))

        # Truncation corpus for the SZ/ZFP baseline decoders: every
        # strict prefix must fail with StreamFormatError (never a raw
        # struct.error / IndexError, never a silent success).  Kept to a
        # small slice — the baseline encoders are far slower than SZx.
        base = data.reshape(-1)[:256]
        if base.size == 0 or bool(np.isfinite(base).all()):
            problems, tested = check_baseline_truncations(
                base, err_bound, rng, cuts_per_stream=4
            )
            report.truncations_tested += tested
            for p in problems:
                failure = FuzzFailure(
                    kind="robustness", detail=f"baseline-truncation: {p}", **ctx
                )
                report.baseline_failures.append(failure)
                if log:
                    log(str(failure))

        report.iterations += 1

    return report
