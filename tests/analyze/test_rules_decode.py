"""Decode-safety rule: unchecked struct/frombuffer reads in decoders."""

import textwrap

from repro.analyze import analyze_source

IN_SCOPE = "src/repro/baselines/sz/codec.py"
OUT_OF_SCOPE = "src/repro/core/kernels.py"
HELPER = "src/repro/core/safebytes.py"


def findings(src, relpath=IN_SCOPE):
    return [
        f
        for f in analyze_source(textwrap.dedent(src), relpath)
        if f.rule == "unchecked-unpack"
    ]


UNPACK_NO_CHECK = """\
    import struct

    def decode(buf):
        return struct.unpack_from("<I", buf)
    """

UNPACK_WITH_CHECK = """\
    import struct

    def decode(buf):
        if len(buf) < 4:
            raise ValueError("short")
        return struct.unpack_from("<I", buf)
    """


class TestScope:
    def test_rule_only_runs_on_decoder_modules(self):
        assert findings(UNPACK_NO_CHECK, OUT_OF_SCOPE) == []
        assert len(findings(UNPACK_NO_CHECK, IN_SCOPE)) == 1

    def test_core_stream_is_in_scope(self):
        assert len(findings(UNPACK_NO_CHECK, "src/repro/core/stream.py")) == 1

    def test_helper_module_is_exempt(self):
        assert findings(UNPACK_NO_CHECK, HELPER) == []


class TestDominance:
    def test_length_check_dominates_static_read(self):
        assert findings(UNPACK_WITH_CHECK) == []

    def test_no_check_is_flagged(self):
        out = findings(UNPACK_NO_CHECK)
        assert len(out) == 1
        assert out[0].severity == "error"

    def test_computed_offset_needs_helper_even_with_check(self):
        src = """\
            import struct

            def decode(buf):
                if len(buf) < 4:
                    raise ValueError("short")
                off = 4
                return struct.unpack_from("<I", buf, off)
            """
        out = findings(src)
        assert len(out) == 1
        assert "computed offset" in out[0].message

    def test_struct_object_method_form(self):
        src = """\
            import struct

            _HEAD = struct.Struct("<I")

            def decode(buf):
                return _HEAD.unpack_from(buf)
            """
        assert len(findings(src)) == 1

    def test_frombuffer_with_computed_count_flagged(self):
        src = """\
            import numpy as np

            def decode(buf, n):
                if len(buf) < 8:
                    raise ValueError("short")
                return np.frombuffer(buf, np.uint8, n, 0)
            """
        assert len(findings(src)) == 1

    def test_frombuffer_without_count_is_not_flagged(self):
        src = """\
            import numpy as np

            def decode(buf):
                return np.frombuffer(buf, dtype=np.uint8)
            """
        assert findings(src) == []

    def test_checked_helpers_are_clean(self):
        src = """\
            from repro.core.safebytes import checked_frombuffer, checked_unpack

            def decode(buf, off, n):
                head = checked_unpack("<I", buf, off, what="header")
                body = checked_frombuffer(buf, "u1", n, off + 4)
                return head, body
            """
        assert findings(src) == []


class TestRealDecodersAreClean:
    def test_shipped_decoder_modules_have_no_findings(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        for rel in (
            "src/repro/baselines/__init__.py",
            "src/repro/baselines/sz/codec.py",
            "src/repro/baselines/zfp/codec.py",
            "src/repro/core/stream.py",
        ):
            src = (repo / rel).read_text(encoding="utf-8")
            out = [
                f
                for f in analyze_source(src, rel)
                if f.rule == "unchecked-unpack"
            ]
            assert out == [], f"{rel}: {[str(f.format()) for f in out]}"
