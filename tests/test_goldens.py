"""Byte-identity of the symbolic verbs' ``--json`` output against the
goldens frozen in ``perfbench/goldens/shipped/`` (one file per verb:
argv with a ``{model}`` placeholder, exit code and stdout)."""
import contextlib
import io
import json
import pathlib

import pytest

from mcft.cli import main

GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
MODEL = GOLDENS / "string.mcft"
CASES = sorted((GOLDENS / "shipped").glob("*.json"))


def test_goldens_present():
    assert CASES


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_shipped_verb_matches_golden(path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    argv = [a.format(model=MODEL) for a in golden["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json", *argv])
    assert code == golden["exit"]
    assert out.getvalue() == golden["stdout"]
