"""Python subprocesses started by the tests import cmbrauer from this checkout."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _src_on_subprocess_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
