"""Cross-feature integration tests: features composed the way users will.

Each test exercises at least two subsystems against each other so
interface drift between them cannot pass silently.
"""

import numpy as np
import pytest

from repro.archive import SzxArchive
from repro.codec import CodecConfig, SZxCodec
from repro.core import (
    compress,
    compress_extended,
    compress_sequence,
    decompress,
    decompress_extended,
    decompress_range,
    decompress_sequence,
)
from repro.core.verify import verify_stream
from repro.datasets import get_application
from repro.metrics import assess

RNG = np.random.default_rng(210)


def omp_codec(workers, err_bound=None):
    """The codec on the thread backend with *workers* pool threads."""
    return SZxCodec(CodecConfig(err_bound=err_bound, workers=workers))


class TestParallelPlusRandomAccess:
    def test_range_reads_from_parallel_stream(self):
        """omp streams are byte-identical, so random access just works."""
        d = np.cumsum(RNG.normal(size=60_000)).astype(np.float32)
        stream = omp_codec(4, 1e-3).compress(d)
        got = decompress_range(stream, 10_000, 20_000)
        assert np.array_equal(got, decompress(stream)[10_000:20_000])

    def test_parallel_decompress_of_gpu_sim_stream(self):
        from repro.gpusim import cuszx_compress_sim

        d = (np.sin(np.linspace(0, 40, 32_000)) * 5).astype(np.float32)
        stream = cuszx_compress_sim(d, 1e-4)
        assert np.array_equal(
            omp_codec(4).decompress(stream), decompress(stream)
        )


class TestVerifierOnAllProducers:
    @pytest.mark.parametrize("producer", ["serial", "omp", "gpu"])
    def test_every_engine_passes_fsck(self, producer):
        d = RNG.normal(size=20_000).astype(np.float32)
        if producer == "serial":
            stream = compress(d, 1e-3)
        elif producer == "omp":
            stream = omp_codec(3, 1e-3).compress(d)
        else:
            from repro.gpusim import cuszx_compress_sim

            stream = cuszx_compress_sim(d, 1e-3)
        report = verify_stream(stream)
        assert report.ok, report.errors


class TestArchiveOfSequences:
    def test_temporal_streams_inside_archive(self):
        frames = [
            (np.sin(np.linspace(0, 10, 4000)) + 0.01 * t).astype(np.float32)
            for t in range(4)
        ]
        seq = compress_sequence(frames, 1e-4)
        arc = SzxArchive()
        arc.add_stream("timeseries", seq)  # archives hold any byte stream
        got = decompress_sequence(_load(arc, "timeseries"))
        assert len(got) == 4
        for orig, rec in zip(frames, got):
            assert np.abs(orig - rec).max() <= 1e-4


def _load(arc, name):
    buf = arc.to_bytes()
    entries = SzxArchive._parse_index(buf)
    off, length = entries[name]
    return buf[off : off + length]


class TestAssessOnEveryCodecPath:
    def test_quality_report_matrix(self):
        d = get_application("Miranda", "tiny").field("density")
        paths = {
            "szx": (compress(d, 1e-3, mode="rel"), decompress),
            "szx-l": (
                compress_extended(d, 1e-3, mode="rel"),
                decompress_extended,
            ),
        }
        for name, (stream, decoder) in paths.items():
            recon = decoder(stream)
            report = assess(d, recon, stream)
            assert report["compression_ratio"] > 1.5, name
            assert report["psnr_db"] > 40, name

    def test_extended_and_plain_reports_agree_on_quality(self):
        d = get_application("Miranda", "tiny").field("pressure")
        plain = assess(d, decompress(compress(d, 1e-3, mode="rel")))
        ext = assess(d, decompress_extended(compress_extended(d, 1e-3, mode="rel")))
        assert plain["psnr_db"] == pytest.approx(ext["psnr_db"])
        assert plain["max_abs_error"] == ext["max_abs_error"]
