"""Smoke tests of the experiment scripts, run as a user would run them."""
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from mcft.cli import main
from mcft.numeric import GAMMA_FIT_TOL

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_convergence_study_smoke():
    (row,) = json.loads(run_script("convergence_study.py", "--gammas", "0.1", "--meshes", "32", "64", "128", "--t-final", "0.5"))
    assert [n["nx"] for n in row["norms"]] == [32, 64, 128]
    assert len(row["convergence_ratios"]) == 2
    for r in row["convergence_ratios"]:
        assert 3.2 <= r <= 4.8
    assert abs(row["decay_fit"] - 0.1) <= GAMMA_FIT_TOL


def test_convergence_study_is_the_verify_law_check():
    # the study's defaults (meshes 128, 256, 512, t = 2, cfl = 0.5) on its
    # string are models/string.mcft's main scenario: the same computation
    (row,) = json.loads(run_script("convergence_study.py", "--gammas", "0.1"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--json", "verify-law", str(ROOT / "models" / "string.mcft"), "Y", "main"]) == 0
    law = json.loads(out.getvalue())["outputs"]
    assert [{k: n[k] for k in ("nx", "l2", "max")} for n in row["norms"]] == law["norms"]
    assert row["convergence_ratios"] == law["convergence_ratios"]
    assert row["decay_fit"] == law["decay_fit"]


def test_noether_corpus_smoke():
    out = run_script("noether_corpus.py", "--size", "6")
    assert out.splitlines()[-1].startswith("43 candidates, 16 Noether, 0 law failures")


def test_convergence_study_closed_stdout_exit_2_without_traceback():
    # the reader closes the pipe before the report is written, as `| head -c 100` may
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), "--gammas", "0.1", "--meshes", "16", "--t-final", "0.1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_noether_corpus_closed_stdout_exit_2_without_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "noether_corpus.py"), "--size", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
