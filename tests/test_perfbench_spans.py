"""The benchmark's tracer finds every name it spans, and puts each one back."""

import importlib.util
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
