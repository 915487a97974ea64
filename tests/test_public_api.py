"""The documented public-API surface of ``repro`` must not drift.

``__all__`` is a contract: additions and removals are deliberate API
decisions, so this test pins the exact surface.  A failing run means
either an accidental export (fix the code) or an intended API change
(update EXPECTED_SURFACE or EXPECTED_PARALLEL_SURFACE *and* the
README/ARCHITECTURE docs).
"""

import dataclasses
import importlib

import numpy as np
import pytest

import repro
import repro.parallel
import repro.parallel.omp
import repro.parallel.procpool

EXPECTED_SURFACE = {
    # codec surface
    "Codec",
    "CodecConfig",
    "SZxCodec",
    "compress",
    "decompress",
    "compress_components",
    "compression_ratio",
    "resolve_error_bound",
    # fused-kernel entry points
    "compress_blocks",
    "decompress_blocks",
    "KernelArena",
    # constants + errors
    "DEFAULT_BLOCK_SIZE",
    "StreamFormatError",
    # subsystem entry points
    "observe",
    "serve",
    "CompressionService",
    "__version__",
}


class TestPublicSurface:
    def test_all_matches_expected_surface(self):
        assert set(repro.__all__) == EXPECTED_SURFACE

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_import_star_exports_exactly_the_surface(self):
        namespace = {}
        exec("from repro import *", namespace)
        exported = {name for name in namespace if not name.startswith("__")}
        # __version__ is dunder-prefixed, so import * skips it by design.
        assert exported == EXPECTED_SURFACE - {"__version__"}

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_dir_includes_lazy_names(self):
        listing = dir(repro)
        assert "serve" in listing
        assert "CompressionService" in listing

    def test_lazy_service_export_is_the_real_class(self):
        from repro.serve import CompressionService

        assert repro.CompressionService is CompressionService

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.not_a_real_export


EXPECTED_PARALLEL_SURFACE = {
    "BACKENDS",
    "MAX_PROCESS_WORKERS",
    "UnknownBackendError",
    "resolve_backend",
    "shared_memory_available",
    "resolve_worker_count",
    "chunk_block_ranges",
    "KILL_SITE",
    "ProcPool",
    "WorkerCrashError",
    "default_pool",
    "shutdown_default_pools",
}


class TestParallelSurface:
    def test_all_matches_expected_surface(self):
        assert set(repro.parallel.__all__) == EXPECTED_PARALLEL_SURFACE

    def test_every_name_resolves(self):
        for name in repro.parallel.__all__:
            assert getattr(repro.parallel, name) is not None


class TestRemovedNames:
    """The 2.0 removals stay removed: one spelling per setting."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threads": 2},
            {"num_threads": 2},
            {"error_bound": 1e-3},
            {"engine": "scalar"},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_removed_config_kwargs_raise(self, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.CodecConfig(**kwargs)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.CodecConfig(err_bound=1e-3, wrokers=2)

    def test_config_has_exactly_six_fields(self):
        names = [f.name for f in dataclasses.fields(repro.CodecConfig)]
        assert names == [
            "err_bound", "mode", "block_size", "checksum", "workers", "backend",
        ]
        assert not hasattr(repro.CodecConfig(), "threads")

    def test_vectorized_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.vectorized")

    @pytest.mark.parametrize(
        "name",
        [
            "omp_compress",
            "omp_decompress",
            "procpool_compress",
            "procpool_decompress",
            "resolve_thread_count",
        ],
    )
    def test_pool_wrappers_are_gone(self, name):
        for module in (
            repro.parallel, repro.parallel.omp, repro.parallel.procpool,
        ):
            assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "flag", [["--threads", "2"], ["--engine", "scalar"]],
        ids=lambda flag: flag[0].lstrip("-"),
    )
    def test_removed_cli_flags_exit_2(self, flag, tmp_path, capsys):
        from repro.cli import main

        raw = tmp_path / "d.f32"
        np.zeros(64, dtype=np.float32).tofile(raw)
        argv = ["compress", str(raw), "-o", str(tmp_path / "d.szx"),
                "-e", "1e-3", *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
