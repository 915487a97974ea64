"""The environment fingerprint stamped on every benchmark record.

:class:`EnvFingerprint` says where a measurement ran: interpreter,
numpy, platform, machine, CPU count and the git commit.  ``perfbench``
writes it into each workload's JSON record so two runs can be told
apart by host before their numbers are compared.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
import sys
from dataclasses import dataclass


def _git_sha() -> str | None:
    """Current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass(frozen=True)
class EnvFingerprint:
    """Where a measurement ran."""

    python: str
    numpy: str
    platform: str
    machine: str
    cpu_count: int
    git_sha: str | None = None

    @classmethod
    def capture(cls) -> "EnvFingerprint":
        import numpy as np

        return cls(
            python=platform.python_version(),
            numpy=np.__version__,
            platform=sys.platform,
            machine=platform.machine(),
            cpu_count=os.cpu_count() or 1,
            git_sha=_git_sha(),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
