"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import basicq


@pytest.fixture
def child_env():
    """Environment for a child ``python`` that imports the basicq under test.

    The child gets the source root of the imported package in front of any
    inherited ``PYTHONPATH``, so it runs from a plain checkout too.
    """
    paths = [str(Path(basicq.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
