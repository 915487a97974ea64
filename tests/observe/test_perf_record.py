"""EnvFingerprint, and that ``import repro`` leaves it unloaded."""

import json
import os
import subprocess
import sys

from repro.observe.perf.record import EnvFingerprint

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestEnvFingerprint:
    def test_capture_fields(self):
        env = EnvFingerprint.capture()
        assert env.cpu_count >= 1
        assert env.python.count(".") == 2
        assert env.numpy
        assert env.machine

    def test_round_trip(self):
        env = EnvFingerprint.capture()
        wire = json.loads(json.dumps(env.to_dict()))
        assert EnvFingerprint(**wire) == env


class TestImportCost:
    def test_import_repro_does_not_load_perf(self):
        """``import repro`` must not pull in the benchmark fingerprint."""
        code = (
            "import sys, repro, repro.observe; "
            "print('repro.observe.perf' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"
