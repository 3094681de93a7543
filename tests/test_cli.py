"""End-to-end tests of the command-line interface.

Everything runs in-process through main() so exit codes and streams are
checked directly; subprocess tests cover the `python3 -m` paths.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import config_json

import povmcert.fidelity
import povmcert.optimize
from povmcert.cli import build_parser, main
from povmcert.experiment import counts_from_csv, plate_systematic, sic_experiment, trine_experiment
from povmcert.fidelity import EnvelopeBin, EnvelopeCurve
from povmcert.witness import build_witness


def run(*args):
    return main([str(a) for a in args])


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


# ------------------------------------------------------------------- bounds


def test_bounds_sic_default_kinds(capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--restarts", 8)
    assert rc == 0
    payload = read_json(capsys)
    assert payload["witness"] == "sic"
    by_kind = {b["kind"]: b for b in payload["bounds"]}
    assert set(by_kind) == {
        "projective-closed-form",
        "three-outcome-numeric",
        "quantum-closed-form",
    }
    assert by_kind["projective-closed-form"]["value"] == pytest.approx(0.7738, abs=5e-4)
    assert by_kind["three-outcome-numeric"]["value"] == pytest.approx(0.7836, abs=1e-3)
    assert by_kind["quantum-closed-form"]["value"] == pytest.approx(0.788675, abs=1e-3)
    assert by_kind["projective-closed-form"]["heuristic"] is False
    assert by_kind["quantum-closed-form"]["heuristic"] is False


def test_bounds_trine_default_kinds(capsys):
    rc = run("bounds", "--witness", "trine", "--k", 1, "--kinds", "projective,quantum", "--restarts", 8)
    assert rc == 0
    kinds = [b["kind"] for b in read_json(capsys)["bounds"]]
    assert kinds == ["projective-numeric", "quantum-closed-form"]


def test_bounds_trine_reports_the_symmetric_pair_value(capsys):
    # the symmetric pair (0, 1) reproduces the lower published-style
    # threshold; the search over every pair finds more
    rc = run("bounds", "--witness", "trine", "--k", 1, "--kinds", "projective", "--restarts", 16)
    assert rc == 0
    free = read_json(capsys)["bounds"][0]
    symmetric = free["diagnostics"]["pair_values"]["0,1"]
    assert symmetric == pytest.approx(4.89165, abs=1e-3)
    assert "assignment" not in free["diagnostics"]
    assert free["value"] >= symmetric + 0.01
    assert free["value"] == pytest.approx(4.91199, abs=1e-3)


def test_bounds_csv_format(capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--kinds", "projective", "--format", "csv")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,value,k,heuristic"
    kind, value, k, heuristic = lines[1].split(",")
    assert kind == "projective-closed-form"
    assert float(value) == pytest.approx(0.7738, abs=5e-4)
    assert float(k) == 0.2
    assert heuristic == "0"


def test_bounds_out_file_and_manifest(tmp_path, capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--kinds", "projective",
             "--out", "b.json", "--out-dir", tmp_path)
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "b.json")
    payload = json.loads((tmp_path / "b.json").read_text())
    assert payload["bounds"][0]["kind"] == "projective-closed-form"
    manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert manifest["command"] == "bounds"
    assert manifest["seed"] == 0
    assert manifest["outputs"] == ["b.json"]
    assert manifest["parameters"]["witness"] == "sic"
    assert "duration_s" in manifest


def test_missing_k_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("bounds", "--witness", "sic")
    assert exc.value.code == 2


def test_unknown_witness_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("bounds", "--witness", "qutrit", "--k", 0.2)
    assert exc.value.code == 2


def test_unknown_kind_exits_two(capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--kinds", "projective,bogus")
    assert rc == 2
    assert "unknown bound kinds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kinds, reason",
    [(",", "names no bound"), (" , ", "names no bound"), ("quantum,quantum", "repeats a bound"),
     ("projective,quantum,projective", "repeats a bound")],
)
def test_empty_or_repeated_kinds_exit_two(kinds, reason, tmp_path, capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--kinds", kinds,
             "--out", "b.json", "--out-dir", tmp_path)
    assert rc == 2
    assert reason in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_quantum_bound_runs_no_search(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the quantum bound ran a see-saw")

    monkeypatch.setattr(povmcert.optimize, "_multistart", refuse)
    rc = run("bounds", "--witness", "trine", "--k", 4.5, "--kinds", "quantum")
    assert rc == 0
    (quantum,) = read_json(capsys)["bounds"]
    assert quantum["kind"] == "quantum-closed-form"
    assert quantum["value"] == 5.0
    assert quantum["heuristic"] is False
    assert quantum["diagnostics"] == {"witness": "trine", "method": "closed-form"}


@pytest.mark.parametrize(
    "witness, k", [("sic", 0.2), ("trine", 1.0), ("trine", 4.5), ("sym-trine", 0.5)]
)
def test_bounds_file_quantum_entry_is_the_known_maximum(witness, k, tmp_path, capsys):
    rc = run("bounds", "--witness", witness, "--k", k, "--kinds", "quantum",
             "--out", "b.json", "--out-dir", tmp_path)
    assert rc == 0
    text = (tmp_path / "b.json").read_text()
    (entry,) = json.loads(text)["bounds"]
    assert entry["kind"] == "quantum-closed-form"
    assert entry["heuristic"] is False
    assert f'"value": {float(build_witness(witness, k).quantum_max)!r},' in text
    assert "preparations" in entry["argmax"]


def test_bounds_has_no_assignment_option(capsys):
    # every outcome pair is searched; the per-pair values are in the diagnostics
    with pytest.raises(SystemExit) as exc:
        run("bounds", "--witness", "trine", "--k", 1, "--kinds", "projective", "--assignment", "0,1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --assignment" in capsys.readouterr().err



def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "povmcert" in capsys.readouterr().out


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "povmcert.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "povmcert" in proc.stdout


def test_package_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "povmcert", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "povmcert" in proc.stdout


# ------------------------------------------------------------- parser reuse


def _parser_round(out: Path) -> list[tuple[str, ...]]:
    """One of each command, run with each command's own defaults where a leak would show."""
    return [
        ("bounds", "--witness", "trine", "--k", "1", "--out", "bounds.json"),
        ("fidelity-curve", "--witness", "trine", "--k", "1", "--samples", "12", "--bin-width", "0.01",
         "--out", "fid"),
        ("simulate", "--witness", "trine", "--k", "1", "--out", "counts.csv"),
        ("certify", "--witness", "trine", "--k", "1", "--counts", str(out / "counts.csv"),
         "--bounds", str(out / "bounds.json"), "--envelope", str(out / "fid.envelope.json"),
         "--syst-runs", "--out", "report.json"),
        ("visibility-curve", "--witness", "trine", "--kind", "projective", "--kgrid", "0.5,1",
         "--restarts", "4", "--out", "vis.csv"),
    ]


def _run_parser_round(out: Path, fresh: argparse.ArgumentParser, capsys) -> dict[str, bytes]:
    """Run a round into `out`: checks each manifest's parameters against
    those of a parser used for nothing else, and returns the data
    artifacts' bytes."""
    for argv in _parser_round(out):
        argv = [*argv, "--out-dir", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        expected = {k: v for k, v in vars(fresh.parse_args(argv)).items() if k != "func" and v is not None}
        name = {"fidelity-curve": "fid.samples.csv"}.get(argv[0], argv[argv.index("--out") + 1])
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert manifest["parameters"] == expected, argv[0]
    capsys.readouterr()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.endswith(".manifest.json")}


def test_cached_parser_leaks_no_state_between_commands(monkeypatch, tmp_path, capsys):
    fresh = build_parser.__wrapped__()
    build_parser.cache_clear()
    builds = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", spy)
        first = _run_parser_round(tmp_path / "a", fresh, capsys)
        second = _run_parser_round(tmp_path / "b", fresh, capsys)
    # one top-level parser for all ten commands
    assert builds.count("povmcert") == 1
    build_parser.cache_clear()
    rebuilt = _run_parser_round(tmp_path / "c", fresh, capsys)
    assert len(first) == 6
    assert first == second == rebuilt
    # each subcommand keeps its own defaults after another's
    params = {
        name: json.loads((tmp_path / "b" / f"{name}.manifest.json").read_text())["parameters"]
        for name in ("bounds.json", "fid.samples.csv", "counts.csv")
    }
    assert params["bounds.json"]["restarts"] == 32
    assert params["fid.samples.csv"]["restarts"] == 8
    assert "restarts" not in params["counts.csv"]


@pytest.mark.parametrize("command, extra", [("bounds", ()), ("simulate", ()), ("fidelity-curve", ("--samples", 10))])
def test_negative_seed_exits_two_naming_the_option(command, extra, tmp_path, capsys):
    rc = run(command, "--witness", "trine", "--k", 1, "--seed", -1, "--out-dir", tmp_path, *extra)
    assert rc == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------- simulate


def test_simulate_writes_counts_and_manifest(tmp_path, capsys):
    rc = run("simulate", "--witness", "sic", "--k", 0.2, "--seed", 3, "--out-dir", tmp_path)
    assert rc == 0
    path = tmp_path / "counts-sic-k0.2.csv"
    assert capsys.readouterr().out.strip() == str(path)
    records = counts_from_csv(path.read_text())
    # 4 preparations x (3 binary settings x 2 outcomes + 4 POVM outcomes)
    assert len(records) == 40
    manifest = json.loads((tmp_path / "counts-sic-k0.2.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["seed"] == 3


def test_simulate_budget_override(tmp_path, capsys):
    rc = run("simulate", "--witness", "trine", "--k", 1, "--budget", 10000,
             "--out-dir", tmp_path, "--out", "c.csv")
    capsys.readouterr()
    assert rc == 0
    records = counts_from_csv((tmp_path / "c.csv").read_text())
    per_setting = {}
    for r in records:
        per_setting.setdefault((r.x, r.y), 0)
        per_setting[(r.x, r.y)] += r.n
    for total in per_setting.values():
        assert abs(total - 10000) < 5 * np.sqrt(10000)


def test_simulate_budget_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "trine.json"
    cfg.write_text(config_json(trine_experiment()))
    rc = run("simulate", "--witness", "trine", "--k", 1, "--config", cfg, "--budget", 1000,
             "--out-dir", tmp_path, "--out", "c.csv")
    capsys.readouterr()
    assert rc == 0
    totals = {}
    for r in counts_from_csv((tmp_path / "c.csv").read_text()):
        totals[(r.x, r.y)] = totals.get((r.x, r.y), 0) + r.n
    for total in totals.values():
        assert abs(total - 1000) < 5 * np.sqrt(1000)


def test_simulate_sym_trine_has_no_builtin_config(capsys):
    rc = run("simulate", "--witness", "sym-trine", "--k", 0.2)
    assert rc == 2
    assert "no built-in optical configuration" in capsys.readouterr().err


def test_simulate_config_witness_mismatch(tmp_path, capsys):
    cfg = tmp_path / "trine.json"
    cfg.write_text(config_json(trine_experiment()))
    rc = run("simulate", "--witness", "sic", "--k", 0.2, "--config", cfg,
             "--out-dir", tmp_path)
    assert rc == 2
    capsys.readouterr()


def test_simulate_seed_changes_counts(tmp_path, capsys):
    run("simulate", "--witness", "trine", "--k", 1, "--seed", 0, "--out", "a.csv", "--out-dir", tmp_path)
    run("simulate", "--witness", "trine", "--k", 1, "--seed", 1, "--out", "b.csv", "--out-dir", tmp_path)
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


# ------------------------------------------------------- byte reproducibility


def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run("simulate", "--witness", "trine", "--k", 4.5, "--seed", 11, "--out-dir", out)
        assert rc == 0
    capsys.readouterr()
    name = "counts-trine-k4.5.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "command, artifacts",
    [
        (["bounds", "--witness", "trine", "--k", "1", "--kinds", "projective,quantum",
          "--restarts", "8", "--out", "b.json"], ["b.json"]),
        # the whole grid runs as one see-saw batch (9 k points x 128 rows)
        (["visibility-curve", "--witness", "sic", "--kind", "three-outcome",
          "--kgrid", "0.05:0.45:0.05", "--format", "json", "--out", "v.json"], ["v.json"]),
        # the witness search's batched eigh and the Kabsch SVD run through LAPACK
        (["fidelity-curve", "--witness", "trine", "--k", "1", "--samples", "60",
          "--restarts", "4", "--seed", "5", "--out", "f"], ["f.samples.csv", "f.envelope.json"]),
    ],
    ids=["bounds", "visibility-curve", "fidelity-curve"],
)
def test_artifacts_byte_identical_across_threads(command, artifacts, tmp_path):
    # BLAS pools size themselves when numpy loads, so the thread count
    # must be set in the environment of a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, **{var: threads for var in BLAS_THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "povmcert.cli", *command, "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in artifacts])
    assert outputs[0] == outputs[1]


def test_fidelity_curve_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run("fidelity-curve", "--witness", "trine", "--k", 1, "--samples", 60,
                 "--seed", 5, "--restarts", 4,
                 "--out-dir", out)
        assert rc == 0
    capsys.readouterr()
    for name in ("fidelity-trine-k1.samples.csv", "fidelity-trine-k1.envelope.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ------------------------------------------------------------ fidelity-curve


def test_fidelity_curve_restarts_reach_the_witness_search(tmp_path, capsys):
    samples = []
    for restarts in (1, 8):
        out = tmp_path / f"r{restarts}"
        rc = run("fidelity-curve", "--witness", "trine", "--k", 1, "--samples", 30,
                 "--seed", 5, "--restarts", restarts, "--out-dir", out)
        assert rc == 0
        samples.append((out / "fidelity-trine-k1.samples.csv").read_bytes())
    capsys.readouterr()
    assert samples[0] != samples[1]


def test_fidelity_curve_artifacts(tmp_path, capsys):
    rc = run("fidelity-curve", "--witness", "sic", "--k", 0.2, "--samples", 150,
             "--restarts", 4,
             "--out-dir", tmp_path, "--out", "fc")
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    samples = tmp_path / "fc.samples.csv"
    envelope = tmp_path / "fc.envelope.json"
    assert printed == [str(samples), str(envelope)]
    rows = samples.read_text().strip().splitlines()
    assert rows[0] == "sample_id,A,F"
    assert len(rows) == 151
    curve = EnvelopeCurve.from_json(envelope.read_text())
    assert sum(b.count for b in curve.bins) == 150
    assert (curve.witness, curve.k) == ("sic", 0.2)
    manifest = json.loads((tmp_path / "fc.samples.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["fc.samples.csv", "fc.envelope.json"]


# ---------------------------------------------------------- visibility-curve


def test_visibility_curve_single_point(tmp_path, capsys):
    rc = run("visibility-curve", "--witness", "sic", "--kind", "projective",
             "--kgrid", "0.2", "--restarts", 8, "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "visibility-sic-projective.csv").read_text().strip().splitlines()
    assert lines[0] == "k,bound_kind,bound,v_crit"
    k, kind, bound, v_crit = lines[1].split(",")
    assert float(k) == 0.2
    assert float(v_crit) == pytest.approx(0.970, abs=1e-3)


def test_visibility_curve_range_grid(tmp_path, capsys):
    rc = run("visibility-curve", "--witness", "sic", "--kind", "projective",
             "--kgrid", "0.1:0.3:0.1", "--restarts", 8, "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "visibility-sic-projective.csv").read_text().strip().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.1, 0.2, 0.3]


def test_visibility_curve_json_format(tmp_path, capsys):
    rc = run("visibility-curve", "--witness", "sic", "--kind", "projective",
             "--kgrid", "0.2", "--restarts", 8, "--format", "json", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    points = json.loads((tmp_path / "visibility-sic-projective.json").read_text())
    assert points[0]["bound_kind"] == "projective"
    assert points[0]["v_crit"] == pytest.approx(0.970, abs=1e-3)


def test_visibility_curve_three_outcome_trine_rejected(capsys):
    rc = run("visibility-curve", "--witness", "trine", "--kind", "three-outcome",
             "--kgrid", "0.2")
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["0.1:0.5", "0.1:0.5:0", "0.1:0.5:-0.1", "-0.2"])
def test_bad_kgrid_exits_two(grid, capsys):
    rc = run("visibility-curve", "--witness", "sic", "--kind", "projective", "--kgrid", grid)
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "grid, name", [("0.1:inf:0.1", "stop"), ("nan:0.5:0.1", "start"), ("0.1:0.5:inf", "step"), ("0.1:0.5:nan", "step")]
)
def test_non_finite_kgrid_range_exits_two_naming_the_bound(grid, name, capsys):
    rc = run("visibility-curve", "--witness", "sic", "--kind", "projective", "--kgrid", grid)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"k grid {name} must be finite" in err
    assert "Maximum allowed size" not in err


# ------------------------------------------------------------------ certify


@pytest.fixture(scope="module")
def sic_counts(tmp_path_factory):
    out = tmp_path_factory.mktemp("counts")
    rc = main(["simulate", "--witness", "sic", "--k", "0.2", "--seed", "7",
               "--budget", "1000000", "--out-dir", str(out)])
    assert rc == 0
    return out / "counts-sic-k0.2.csv"


@pytest.fixture(scope="module")
def trine_counts(tmp_path_factory):
    out = tmp_path_factory.mktemp("counts")
    rc = main(["simulate", "--witness", "trine", "--k", "4.5", "--seed", "7",
               "--out-dir", str(out)])
    assert rc == 0
    return out / "counts-trine-k4.5.csv"


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_config_with_an_invalid_povm_exits_two(command, sic_counts, tmp_path, capsys):
    data = json.loads(config_json(sic_experiment()))
    for element in data["povm"]["elements"]:
        element["lambda"] = 0.5
    cfg = tmp_path / "sic.json"
    cfg.write_text(json.dumps(data))
    # certify reads the config for the plate systematic, after a one-restart search
    extra = ("--counts", sic_counts, "--syst-runs", "--restarts", 1) if command == "certify" else ()
    rc = run(command, "--witness", "sic", "--k", 0.2, "--config", cfg, "--out-dir", tmp_path, *extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert "not a valid POVM" in err and "weights do not sum to 1" in err


def test_certify_sic_end_to_end(sic_counts, tmp_path, capsys):
    rc = run("bounds", "--witness", "sic", "--k", 0.2, "--restarts", 8,
             "--out", "bounds.json", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    rc = run("certify", "--counts", sic_counts, "--witness", "sic", "--k", 0.2,
             "--bounds", tmp_path / "bounds.json", "--syst-err", 1e-4)
    assert rc == 0
    report = read_json(capsys)
    assert report["witness"] == "sic"
    assert report["value"] == pytest.approx(0.78615, abs=2e-3)
    assert report["syst_err"] == 1e-4
    assert report["qubit_consistent"] is True
    assert report["verdicts"]["non_projective_certified"] is True
    assert report["verdicts"]["genuine_four_outcome_certified"] is True
    assert set(report["bounds"]) >= {"projective", "three-outcome"}


def test_certify_computes_bounds_when_not_given(trine_counts, capsys):
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--restarts", 8)
    assert rc == 0
    report = read_json(capsys)
    assert report["verdicts"]["non_projective_certified"] is True
    assert report["verdicts"]["genuine_four_outcome_certified"] is False
    assert "quantum" in report["bounds"]


def test_certify_failed_certification_still_exits_zero(trine_counts, tmp_path, capsys):
    bounds = {
        "witness": "trine",
        "k": 4.5,
        "bounds": [
            {"kind": "projective-numeric", "value": 4.999, "k": 4.5, "heuristic": True}
        ],
    }
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(bounds))
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--bounds", path)
    assert rc == 0
    report = read_json(capsys)
    assert report["verdicts"]["non_projective_certified"] is False


def test_certify_rejects_bounds_for_another_witness(tmp_path, capsys):
    # sym-trine bounds share trine's scenario and k but not its values: the
    # sym-trine projective bound 0.809 sits far below trine's value 4.977
    rc = run("bounds", "--witness", "sym-trine", "--k", 1, "--kinds", "projective",
             "--out", "b.json", "--out-dir", tmp_path)
    assert rc == 0
    rc = run("simulate", "--witness", "trine", "--k", 1, "--seed", 3,
             "--out", "c.csv", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    rc = run("certify", "--counts", tmp_path / "c.csv", "--witness", "trine", "--k", 1,
             "--bounds", tmp_path / "b.json")
    assert rc == 2
    assert "witness='sym-trine'" in capsys.readouterr().err
    # a bare list of bounds carries no stamp at all
    bare = json.loads((tmp_path / "b.json").read_text())["bounds"]
    (tmp_path / "bare.json").write_text(json.dumps(bare))
    rc = run("certify", "--counts", tmp_path / "c.csv", "--witness", "trine", "--k", 1,
             "--bounds", tmp_path / "bare.json")
    assert rc == 2
    assert "witness=None" in capsys.readouterr().err


def test_certify_rejects_a_pair_restricted_projective_bound(tmp_path, capsys):
    # restricted to the pair (0, 1) the trine projective bound at k = 1 is
    # 4.89165, below the unrestricted 4.91199, so this run would pass it;
    # `bounds` no longer writes such a file, so it is made by hand
    rc = run("bounds", "--witness", "trine", "--k", 1, "--kinds", "projective",
             "--restarts", 8, "--out", "b01.json", "--out-dir", tmp_path)
    assert rc == 0
    payload = json.loads((tmp_path / "b01.json").read_text())
    (bound,) = payload["bounds"]
    bound["value"] = bound["diagnostics"]["pair_values"]["0,1"]
    bound["diagnostics"]["assignment"] = [0, 1]
    (tmp_path / "b01.json").write_text(json.dumps(payload))
    rc = run("simulate", "--witness", "trine", "--k", 1, "--seed", 1, "--budget", 2000,
             "--out", "c.csv", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    rc = run("certify", "--counts", tmp_path / "c.csv", "--witness", "trine", "--k", 1,
             "--bounds", tmp_path / "b01.json", "--syst-err", 0.05)
    assert rc == 2
    assert "restricted to outcomes [0, 1]" in capsys.readouterr().err


def test_certify_envelope_gives_fidelity_floor(sic_counts, tmp_path, capsys):
    curve = EnvelopeCurve(
        bin_width=10.0,
        bins=(EnvelopeBin(a_lo=0.0, a_hi=10.0, min_f=0.93, count=5),),
        witness="sic",
        k=0.2,
    )
    path = tmp_path / "env.json"
    path.write_text(curve.to_json())
    rc = run("certify", "--counts", sic_counts, "--witness", "sic", "--k", 0.2,
             "--restarts", 8, "--envelope", path)
    assert rc == 0
    report = read_json(capsys)
    assert report["fidelity_estimate"]["min_fidelity"] == 0.93


def test_certify_rejects_envelope_for_another_k(sic_counts, tmp_path, capsys):
    rc = run("fidelity-curve", "--witness", "sic", "--k", 0.5, "--samples", 20,
             "--restarts", 2,
             "--out-dir", tmp_path, "--out", "k05")
    assert rc == 0
    capsys.readouterr()
    rc = run("certify", "--counts", sic_counts, "--witness", "sic", "--k", 0.2,
             "--restarts", 8, "--envelope", tmp_path / "k05.envelope.json")
    assert rc == 2
    assert "k=0.5" in capsys.readouterr().err


def test_certify_rejects_unstamped_envelope(sic_counts, tmp_path, capsys):
    curve = EnvelopeCurve(
        bin_width=10.0, bins=(EnvelopeBin(a_lo=0.0, a_hi=10.0, min_f=0.93, count=5),)
    )
    path = tmp_path / "env.json"
    path.write_text(curve.to_json())
    rc = run("certify", "--counts", sic_counts, "--witness", "sic", "--k", 0.2,
             "--restarts", 8, "--envelope", path)
    assert rc == 2
    assert "witness=None" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"bin_width": -1.0},
        {"bin_width": float("nan")},
        {"a_lo": float("-inf")},
        {"a_lo": 10.0, "a_hi": 0.0},
        {"min_f": float("nan")},
        {"min_f": -3.0},
        {"min_f": 1.5},
        {"count": 0},
    ],
    ids=["negative-width", "nan-width", "infinite-edge", "reversed-edges", "nan-fidelity",
         "negative-fidelity", "fidelity-above-one", "empty-bin"],
)
def test_certify_rejects_malformed_envelope(change, sic_counts, tmp_path, capsys):
    width = change.get("bin_width", 10.0)
    fields = {"a_lo": 0.0, "a_hi": 10.0, "min_f": 0.93, "count": 5}
    fields.update((key, v) for key, v in change.items() if key in fields)
    curve = EnvelopeCurve(width, (EnvelopeBin(**fields),), witness="sic", k=0.2)
    path = tmp_path / "env.json"
    path.write_text(curve.to_json())
    rc = run("certify", "--counts", sic_counts, "--witness", "sic", "--k", 0.2,
             "--restarts", 8, "--envelope", path)
    assert rc == 2
    assert f"envelope {path}" in capsys.readouterr().err


def test_certify_syst_runs_uses_builtin_config(trine_counts, capsys):
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--restarts", 8, "--syst-runs", 200, "--seed", 2)
    assert rc == 0
    report = read_json(capsys)
    # the exact angle-jitter spread of the modeled trine setup
    assert report["syst_err"] == plate_systematic(trine_experiment(), build_witness("trine", 4.5))
    assert 5e-4 < report["syst_err"] < 2.5e-3
    assert report["qubit_consistent"] is True


@pytest.fixture(scope="module")
def trine_bounds(tmp_path_factory):
    out = tmp_path_factory.mktemp("bounds")
    rc = main(["bounds", "--witness", "trine", "--k", "4.5", "--kinds", "projective,quantum",
               "--restarts", "8", "--out", "b.json", "--out-dir", str(out)])
    assert rc == 0
    return out / "b.json"


def _certify_report(counts, bounds, tmp_path, name, *extra):
    rc = run("certify", "--counts", counts, "--witness", "trine", "--k", 4.5,
             "--bounds", bounds, "--out", name, "--out-dir", tmp_path, *extra)
    assert rc == 0
    return (tmp_path / name).read_bytes()


def test_certify_syst_runs_count_does_not_change_the_report(trine_counts, trine_bounds, tmp_path, capsys):
    # the count is accepted for old command lines; the systematic takes no draws
    bare = _certify_report(trine_counts, trine_bounds, tmp_path, "bare.json", "--syst-runs")
    for count in (200, 100_000):
        again = _certify_report(trine_counts, trine_bounds, tmp_path, f"n{count}.json", "--syst-runs", count)
        assert again == bare, count
    assert json.loads(bare)["syst_err"] > 0


def test_certify_report_does_not_depend_on_the_seed_with_bounds(trine_counts, trine_bounds, tmp_path, capsys):
    reports = [
        _certify_report(trine_counts, trine_bounds, tmp_path, f"s{seed}.json", "--syst-runs", "--seed", seed)
        for seed in (1, 2)
    ]
    assert reports[0] == reports[1]


def test_certify_negative_syst_runs_exits_two(trine_counts, trine_bounds, capsys):
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--bounds", trine_bounds, "--syst-runs", -1)
    assert rc == 2
    assert "--syst-runs" in capsys.readouterr().err


def test_certify_config_without_syst_runs_exits_two(trine_counts, tmp_path, capsys):
    # --config only feeds the plate systematic: alone it would be silently ignored
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 1,
             "--config", tmp_path / "missing.json")
    assert rc == 2
    assert "--syst-runs" in capsys.readouterr().err


def test_certify_checks_restarts_with_bounds_file(trine_counts, tmp_path, capsys):
    # --bounds skips the search, but --restarts 0 is refused as it is without it
    rc = run("bounds", "--witness", "trine", "--k", 1, "--kinds", "projective",
             "--restarts", 8, "--out", "b.json", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    for extra in ((), ("--bounds", tmp_path / "b.json")):
        rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 1,
                 "--restarts", 0, *extra)
        assert rc == 2
        assert "restarts must be at least 1" in capsys.readouterr().err


def test_certify_out_file(trine_counts, tmp_path, capsys):
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--restarts", 8, "--out", "report.json", "--out-dir", tmp_path)
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert "verdicts" in report
    assert (tmp_path / "report.json.manifest.json").exists()


def test_certify_csv_format_rejected(trine_counts, capsys):
    # certify writes JSON only, so it has no --format option
    with pytest.raises(SystemExit) as exc:
        run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
            "--format", "csv")
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("simulate", "--format"),
    ("simulate", "--restarts"),
    ("fidelity-curve", "--format"),
])
def test_options_a_command_never_reads_are_rejected(command, option, capsys):
    value = "csv" if option == "--format" else "8"
    with pytest.raises(SystemExit) as exc:
        run(command, "--witness", "trine", "--k", 1, option, value)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
def test_bad_bin_width_exits_two_before_the_search(width, tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise RuntimeError("the witness search started")

    monkeypatch.setattr(povmcert.fidelity, "maximize_given_povm_batch", no_search)
    rc = run("fidelity-curve", "--witness", "trine", "--k", 1, "--samples", 10,
             f"--bin-width={width}", "--out-dir", tmp_path)
    assert rc == 2
    assert "bin width" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("restarts", [0, -1])
@pytest.mark.parametrize("command, extra", [("bounds", ()), ("fidelity-curve", ("--samples", 10))])
def test_non_positive_restarts_exit_two(command, extra, restarts, tmp_path, capsys):
    rc = run(command, "--witness", "trine", "--k", 1, "--restarts", restarts,
             "--out-dir", tmp_path, *extra)
    assert rc == 2
    assert "restarts" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("this,is,not\na,counts,file\n", "columns x,y,b,n"),
        ("x,y,b,n\n0,0,0,5\n0,0\n", "line 3"),
        ("x,y,b,n\n0,0,0,5\n0\n", "line 3"),
        ("x,y,b,n\n0,0,0,5,7\n", "line 2 has more cells"),
        ("x,y,b,n,x\n0,0,0,5,9\n", "line 1) repeats x"),
    ],
    ids=["not-counts", "short-row", "x-only-row", "surplus-cell", "repeated-column"],
)
def test_certify_malformed_counts_exits_two(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    rc = run("certify", "--counts", path, "--witness", "sic", "--k", 0.2)
    assert rc == 2
    assert reason in capsys.readouterr().err


def test_certify_missing_counts_file_exits_two(capsys):
    rc = run("certify", "--counts", "/nonexistent/counts.csv", "--witness", "sic", "--k", 0.2)
    assert rc == 2
    capsys.readouterr()


def test_certify_malformed_bounds_file_exits_two(trine_counts, tmp_path, capsys):
    path = tmp_path / "bounds.json"
    path.write_text('{"bounds": [{"value": 4.8}]}')
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--bounds", path)
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "bounds, reason",
    [
        ({"a": 1}, "must be a list of objects"),
        ([4.8], "must be a list of objects"),
        ([{"kind": 7, "value": 4.8, "k": 4.5, "heuristic": True}], "string 'kind'"),
        ([{"kind": "projective-numeric", "value": 4.8, "k": 4.5, "heuristic": "false"}],
         "true/false 'heuristic'"),
    ],
    ids=["bounds-object", "bound-number", "kind-number", "heuristic-string"],
)
def test_certify_malformed_bound_entries_exit_two(bounds, reason, trine_counts, tmp_path, capsys):
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps({"witness": "trine", "k": 4.5, "bounds": bounds}))
    rc = run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
             "--bounds", path)
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert reason in err


def test_certify_uniform_counts_all_verdicts_false(tmp_path, capsys):
    rows = ["x,y,b,n"]
    for x in range(4):
        for y in range(3):
            for b in range(2):
                rows.append(f"{x},{y},{b},500")
        for b in range(4):
            rows.append(f"{x},povm,{b},250")
    path = tmp_path / "uniform.csv"
    path.write_text("\n".join(rows) + "\n")
    rc = run("certify", "--counts", path, "--witness", "sic", "--k", 0.2, "--restarts", 8)
    assert rc == 0
    report = read_json(capsys)
    assert report["verdicts"] == {
        "non_projective_certified": False,
        "genuine_four_outcome_certified": False,
    }


def test_certify_missing_setting_group_exits_two(tmp_path, capsys):
    # preparation 2 never sees binary setting 1
    rows = ["x,y,b,n"]
    for x in range(3):
        for y in range(2):
            if (x, y) == (2, 1):
                continue
            for b in range(2):
                rows.append(f"{x},{y},{b},500")
        for b in range(3):
            rows.append(f"{x},povm,{b},300")
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(rows) + "\n")
    rc = run("certify", "--counts", path, "--witness", "trine", "--k", 1)
    assert rc == 2
    assert "at least one count" in capsys.readouterr().err


def test_certify_syst_flags_mutually_exclusive(trine_counts):
    with pytest.raises(SystemExit) as exc:
        run("certify", "--counts", trine_counts, "--witness", "trine", "--k", 4.5,
            "--syst-err", 0.001, "--syst-runs", 100)
    assert exc.value.code == 2


# ------------------------------------------------------------------ out dirs


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POVMCERT_OUT_DIR", str(tmp_path / "envdir"))
    rc = run("simulate", "--witness", "trine", "--k", 1, "--out", "c.csv")
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envdir" / "c.csv").exists()


def test_out_dir_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POVMCERT_OUT_DIR", str(tmp_path / "envdir"))
    rc = run("simulate", "--witness", "trine", "--k", 1, "--out", "c.csv",
             "--out-dir", tmp_path / "flagdir")
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "flagdir" / "c.csv").exists()
    assert not (tmp_path / "envdir" / "c.csv").exists()
