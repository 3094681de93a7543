"""Smoke tests of the scripts under scripts/, run as a user runs them."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_lab_run_fast_certifies_every_dataset(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_lab_run.py"), "--fast", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for tag in ("sic-k0.2", "trine-k1", "trine-k4.5"):
        path = tmp_path / f"report-{tag}.json"
        report = json.loads(path.read_text())
        assert report["qubit_consistent"] is True, path.name
        assert report["verdicts"]["non_projective_certified"] is True, path.name
        if report["witness"] == "sic":
            assert report["verdicts"]["genuine_four_outcome_certified"] is True


@pytest.mark.parametrize("flags, samples", [((), None), (("--desk",), "10000")])
def test_fidelity_envelopes_leaves_full_scale_to_the_cli_defaults(monkeypatch, flags, samples):
    # the script's `cli` is patched to record its argv, so no search runs
    spec = importlib.util.spec_from_file_location("fidelity_envelopes", ROOT / "scripts" / "fidelity_envelopes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "cli", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["fidelity_envelopes.py", *flags])
    script.main()
    assert [argv[argv.index("--witness") + 1] for argv in calls] == ["sic", "trine"]
    for argv in calls:
        assert (argv[argv.index("--samples") + 1] if "--samples" in argv else None) == samples
