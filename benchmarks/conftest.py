"""Shared fixtures of the benchmark suite.

The offline phase (model family, MLP, KNN databases) is built once per
session — or loaded from ``.cache/`` — so each benchmark times only its own
experiment.  Set ``REPRO_SCALE=default`` (or ``paper``) for larger runs.
"""

from pathlib import Path

import pytest

from repro.experiments import build_artifacts, get_scale
from repro.experiments.common import _ARTIFACT_VERSION

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def artifacts():
    """Session-wide offline artifacts at the configured scale."""
    return build_artifacts(get_scale())


@pytest.fixture()
def report(capsys):
    """Print a result table to the real terminal and archive it.

    The archived file's first line names the scale and the artifact version
    it was measured at, so a figure left over from an older build shows.
    """

    def emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        header = f"scale={get_scale().name} artifact_version={_ARTIFACT_VERSION}"
        (RESULTS_DIR / f"{name}.txt").write_text(f"{header}\n{text}\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return emit
