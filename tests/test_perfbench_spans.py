"""The benchmark's tracer finds every name it spans and puts each one back, and its checks pass their self-tests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_tracer_patches_and_restores_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # the environment re-exec runs only as __main__

    with run.Patcher() as patcher:
        run.install_tracer(run.Tracer(), patcher)
        patched = list(patcher._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_selftest_passes():
    """``perfbench/selftest.py`` reads the harness's folds and reports, so a change to them shows here first."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["PASS"] * 3
