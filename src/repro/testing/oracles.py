"""The properties every fuzz iteration must satisfy.

Three oracles:

* :func:`check_error_bound` — the pointwise absolute error of a
  reconstruction never exceeds the bound (the paper's defining
  guarantee, Section 3);
* :func:`check_round_trip` — the scalar reference, the fused-kernel
  chain and the thread pool emit byte-identical streams, all decode
  paths reconstruct identical arrays, and the reconstruction respects
  the bound;
* :func:`check_mutation` — decoding a corrupted stream either raises
  :class:`~repro.core.errors.StreamFormatError` or reproduces the
  reference exactly; any other exception type, and any silently wrong
  reconstruction of a checksummed stream, is a failure.

Each returns a list of human-readable problem strings (empty = pass) so
the fuzz driver can aggregate without exception plumbing.
"""

from __future__ import annotations

import numpy as np

from ..core.api import compress_components, decompress, resolve_error_bound
from ..core.errors import StreamFormatError
from ..core.stream import parse_stream
from ..core.scalar import compress_scalar, decompress_scalar
from ..core.kernels import decompress_blocks

__all__ = [
    "check_baseline_truncations",
    "check_error_bound",
    "check_mutation",
    "check_round_trip",
]


def check_error_bound(
    original: np.ndarray, recon: np.ndarray, abs_bound: float
) -> list:
    """Problems with the pointwise |orig - recon| <= bound guarantee."""
    problems = []
    orig = np.asarray(original).reshape(-1)
    rec = np.asarray(recon).reshape(-1)
    if orig.shape != rec.shape:
        return [f"shape mismatch: {orig.shape} vs {rec.shape}"]
    if orig.size == 0:
        return problems
    err = np.abs(orig.astype(np.float64) - rec.astype(np.float64))
    worst = float(err.max())
    # One half-ULP of slack at the stored precision: the reconstruction
    # is rounded to the original dtype after mu + quantized offset.
    slack = float(np.finfo(orig.dtype).eps) * max(1.0, worst)
    if worst > abs_bound + slack:
        idx = int(err.argmax())
        problems.append(
            f"bound violated: |err|={worst:.6g} > bound={abs_bound:.6g} "
            f"at index {idx} (orig={orig[idx]!r}, recon={rec[idx]!r})"
        )
    return problems


def check_round_trip(
    data: np.ndarray,
    err_bound: float,
    *,
    mode: str = "abs",
    block_size: int = 128,
    workers: int = 3,
    checksum: bool = False,
) -> list:
    """Scalar-vs-kernel-vs-pool differential check; returns problem strings."""
    problems = []
    arr = np.asarray(data)
    abs_bound = resolve_error_bound(arr, err_bound, mode)

    vec = compress_components(
        arr, err_bound, mode=mode, block_size=block_size, checksum=checksum,
    )
    vec_bytes = vec.to_bytes()

    sca = compress_scalar(arr, abs_bound, block_size, checksum=checksum)
    sca_bytes = sca.to_bytes()
    if sca_bytes != vec_bytes:
        problems.append(
            "scalar and kernel streams differ "
            f"({len(sca_bytes)} vs {len(vec_bytes)} bytes, first diff at "
            f"{_first_diff(sca_bytes, vec_bytes)})"
        )

    from ..codec import CodecConfig, SZxCodec

    omp_codec = SZxCodec(CodecConfig(
        err_bound=err_bound, mode=mode, block_size=block_size,
        checksum=checksum, workers=workers,
    ))
    omp_bytes = omp_codec.compress(arr)
    if omp_bytes != vec_bytes:
        problems.append(
            f"thread-pool (workers={workers}) stream differs from "
            f"serial (first diff at {_first_diff(omp_bytes, vec_bytes)})"
        )

    # Decode through every path; all must agree bit-for-bit.
    parsed = parse_stream(vec_bytes)
    recon_vec = decompress_blocks(parsed).reshape(-1)
    recon_sca = decompress_scalar(parsed).reshape(-1)
    recon_api = decompress(vec_bytes).reshape(-1)
    recon_omp = omp_codec.decompress(vec_bytes).reshape(-1)
    for name, recon in (
        ("scalar", recon_sca),
        ("api", recon_api),
        (f"omp(workers={workers})", recon_omp),
    ):
        if not _bit_equal(recon, recon_vec):
            problems.append(f"{name} decode differs from kernel decode")

    problems.extend(check_error_bound(arr, recon_vec, abs_bound))
    return problems


def check_mutation(
    mutant: bytes,
    reference: np.ndarray,
    *,
    checksummed: bool = True,
    decoder=None,
) -> list:
    """Check fail-closed decoding of a (possibly) corrupted stream.

    The contract: *decoder(mutant)* either raises ``StreamFormatError``
    (clean rejection) or returns an array bit-identical to *reference*
    (the mutation was benign — e.g. junk appended past the end).  A raw
    ``struct.error`` / ``IndexError`` / numpy exception escaping, or a
    silently different reconstruction, is a failure.
    """
    decoder = decoder or decompress
    ref = np.asarray(reference).reshape(-1)
    try:
        out = decoder(bytes(mutant))
    except StreamFormatError:
        return []
    except Exception as exc:  # noqa: BLE001 - the point of the oracle
        return [
            f"raw {type(exc).__name__} escaped the decoder: {exc}"
        ]
    out = np.asarray(out).reshape(-1)
    if _bit_equal(out, ref):
        return []
    if checksummed:
        return [
            "checksummed mutant decoded silently to a different array "
            f"({out.size} values vs reference {ref.size})"
        ]
    # Without a checksum, payload-only corruption is structurally
    # undetectable; a silent wrong decode is the documented limitation.
    return []


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def _first_diff(a: bytes, b: bytes) -> str:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return f"byte {i}"
    return f"byte {n} (length mismatch)"


def check_baseline_truncations(
    data: np.ndarray,
    err_bound: float,
    rng: np.random.Generator,
    *,
    cuts_per_stream: int = 5,
) -> tuple:
    """Truncation corpus for the SZ/ZFP baseline decoders.

    Returns ``(problems, n_tested)``.

    Compresses *data* with each baseline codec and feeds strict prefixes
    of every stream back to its decoder.  The contract mirrors
    :func:`check_mutation`'s fail-closed clause: a truncated stream must
    raise :class:`~repro.core.errors.StreamFormatError` — a raw
    ``struct.error`` / ``IndexError`` / numpy exception escaping, or a
    silent successful decode, is a failure.  Cut points mix structural
    positions (1 byte, last byte) with seeded uniform draws.
    """
    from ..baselines import sz_compress, sz_decompress, zfp_compress, zfp_decompress

    codecs = [
        ("sz", lambda a: sz_compress(a, err_bound), sz_decompress),
        ("zfp", lambda a: zfp_compress(a, err_bound, mode="fast"), zfp_decompress),
        ("zfp-embedded", lambda a: zfp_compress(a, err_bound), zfp_decompress),
    ]
    problems = []
    tested = 0
    for name, encode, decode in codecs:
        stream = encode(data)
        cuts = {1, len(stream) - 1}
        cuts.update(
            int(c) for c in rng.integers(0, len(stream), size=cuts_per_stream)
        )
        for cut in sorted(c for c in cuts if 0 <= c < len(stream)):
            prefix = stream[:cut]
            tested += 1
            try:
                decode(prefix)
            except StreamFormatError:
                continue
            except Exception as exc:  # noqa: BLE001 - the point of the oracle
                problems.append(
                    f"{name}: raw {type(exc).__name__} escaped the decoder "
                    f"on a {cut}/{len(stream)}-byte prefix: {exc}"
                )
            else:
                problems.append(
                    f"{name}: truncated stream ({cut}/{len(stream)} bytes) "
                    "decoded without error"
                )
    return problems, tested
