"""Python subprocesses started by the tests import cmbrauer from this checkout."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _src_on_subprocess_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def fresh_session(monkeypatch):
    """An empty retained sweep, field index, past-sweep memo and set of census
    tables, as in a new process; the session's sweep, index and tables are put
    back afterwards, and its memo fills again as fields past the sweep are
    asked for."""
    from cmbrauer import cm_census, quadratic

    for name, empty in (("_counts", []), ("_fields_by_h", {}), ("_field_objects_by_h", {}), ("_index", {})):
        monkeypatch.setattr(quadratic, name, empty)
    quadratic._count_forms_by_a.cache_clear()
    monkeypatch.setattr(cm_census, "_census_tables", {})
