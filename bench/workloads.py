"""The benchmark's workloads: command sequences and their correctness checks.

Each workload drives `povmcert.cli.main` as a closed loop with one client:
a command starts when the previous one returns, all in this process.  A
pass is one full round of the workload's commands with the run's seed, so
every pass repeats the same work and writes the same bytes.  The checks
compare the artifacts of a run with `oracles` (independent code) and with
properties the method must have, never with stored program output.
"""
from __future__ import annotations

import functools
import io
import json
import math
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import povmcert.cli
import povmcert.fidelity


class Client:
    """One caller issuing CLI commands back to back, counting failures."""

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> float:
        """Run one command; returns its wall time in seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with span, redirect_stdout(out), redirect_stderr(err):
            rc = povmcert.cli.main(argv)
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)} -> exit {rc}: {err.getvalue().strip()}")
        return seconds


def _identical_artifacts(pass_dirs: list[Path]) -> list[str]:
    """Data artifacts (manifests excluded) must repeat byte for byte across passes."""
    failures = []
    first = pass_dirs[0]
    names = sorted(p.name for p in first.iterdir() if not p.name.endswith(".manifest.json"))
    for other in pass_dirs[1:]:
        for name in names:
            if (other / name).read_bytes() != (first / name).read_bytes():
                failures.append(f"{other.name}/{name} differs from {first.name}/{name}")
    return failures


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------- lab


class Lab:
    """Modelled lab analysis: simulate, bounds, certify with MC systematics."""

    name = "lab"
    # (tag, witness, k, published MC systematic)
    CASES = (("sic-k0.2", "sic", 0.2, 1.0e-4), ("trine-k1", "trine", 1.0, 1.7e-3), ("trine-k4.5", "trine", 4.5, 1.7e-3))
    MC_RUNS = 100_000
    items, rate_name = len(CASES), "datasets_per_s"  # taken to a verdict per pass

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, client: Client, out: Path) -> dict:
        times = {"simulate_s": 0.0, "bounds_s": 0.0, "certify_s": 0.0}
        for tag, witness, k, _ in self.CASES:
            common = ["--witness", witness, "--k", f"{k:g}", "--seed", str(self.seed), "--out-dir", str(out)]
            times["simulate_s"] += client(["simulate", *common, "--out", f"counts-{tag}.csv"])
            times["bounds_s"] += client(["bounds", *common, "--out", f"bounds-{tag}.json"])
            times["certify_s"] += client([
                "certify", *common,
                "--counts", str(out / f"counts-{tag}.csv"),
                "--bounds", str(out / f"bounds-{tag}.json"),
                "--syst-runs", str(self.MC_RUNS),
                "--out", f"report-{tag}.json",
            ])
        return times

    def check(self, pass_dirs: list[Path]) -> list[str]:
        failures = _identical_artifacts(pass_dirs)
        out = pass_dirs[0]
        for tag, witness, k, published_syst in self.CASES:
            report = json.loads((out / f"report-{tag}.json").read_text())
            bounds = json.loads((out / f"bounds-{tag}.json").read_text())["bounds"]
            counts = (out / f"counts-{tag}.csv").read_text()
            failures += [f"{tag}: {m}" for m in self._check_case(witness, k, published_syst, report, bounds, counts)]
        return failures

    @staticmethod
    def _check_case(witness, k, published_syst, report, bounds, counts) -> list[str]:
        bad = []
        expected = oracles.counts_csv_value(witness, k, counts)
        if not _close(report["value"], expected, 1e-12 * max(1.0, abs(expected))):
            bad.append(f"report value {report['value']!r} != counts value {expected!r}")

        qmax = oracles.QUANTUM_MAX[witness]
        slots = {}
        for b in bounds:
            slot = next(s for s in ("projective", "three-outcome", "quantum") if b["kind"].startswith(s))
            slots[slot] = b["value"]
            if not _close(report["bounds"][slot], b["value"], 0.0):
                bad.append(f"report {slot} bound differs from the bounds artifact")
            arg = b["argmax"]
            if isinstance(arg, dict) and "preparations" in arg:
                w = [e["lambda"] for e in arg["povm"]["elements"]]
                n = [e["bloch"] for e in arg["povm"]["elements"]]
                problems = oracles.strategy_problems(arg["preparations"], arg["binaries"], w, n, slot)
                bad += [f"{b['kind']} argmax: {p}" for p in problems]
                value = oracles.strategy_value(witness, k, arg["preparations"], arg["binaries"], w, n)
                if not _close(value, b["value"], 1e-9):
                    bad.append(f"{b['kind']} value {b['value']!r}, Born oracle on its argmax {value!r}")
        q = slots["quantum"]
        if not (qmax - 1e-5 <= q <= qmax + 1e-9):
            bad.append(f"quantum bound {q!r} not within [max - 1e-5, max + 1e-9] of {qmax!r}")
        order = [slots[s] for s in ("projective", "three-outcome", "quantum") if s in slots]
        if any(lo > hi + 1e-9 for lo, hi in zip(order, order[1:])):
            bad.append(f"bounds out of order: {order}")

        proj = slots["projective"]
        if witness == "sic":
            if not _close(proj, 0.7738, 5e-4):
                bad.append(f"sic projective bound {proj!r} not 0.7738 +- 5e-4")
            if not _close(slots["three-outcome"], 0.7836, 1e-3):
                bad.append(f"sic three-outcome bound {slots['three-outcome']!r} not 0.7836 +- 1e-3")
        else:
            pair_value = {1.0: 4.89165, 4.5: 4.71139}[k]
            if proj < pair_value - 1e-3:
                bad.append(f"trine projective bound {proj!r} below the pair value {pair_value}")

        verdicts = report["verdicts"]
        if not verdicts["non_projective_certified"]:
            bad.append("not certified non-projective")
        if witness == "sic" and not verdicts["genuine_four_outcome_certified"]:
            bad.append("not certified genuine four-outcome")
        syst = report["syst_err"]
        if not (published_syst / 3 <= syst <= published_syst * 3):
            bad.append(f"MC systematic {syst!r} not within a factor 3 of {published_syst}")
        return bad


# ----------------------------------------------------------------- envelope


class Envelope:
    """Sampled fidelity envelopes: fixed-POVM witness search plus rotation search."""

    name = "envelope"
    # (witness, k, target directions, samples, bin width, probe A, floor range)
    CASES = (
        ("sic", 0.2, oracles.TETRAHEDRON, 300, 0.002, 0.78514, (0.97, 0.99)),
        ("trine", 1.0, oracles.TRINE, 300, 0.01, 4.96587, (0.96, 0.99)),
    )
    items, rate_name = sum(c[3] for c in CASES), "samples_per_s"  # POVMs scored per pass

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.draws = []  # every POVM batch the program drew, in order
        draw = povmcert.fidelity.random_extremal_povms

        @functools.wraps(draw)
        def capture(*args, **kwargs):
            sample = draw(*args, **kwargs)
            self.draws.append(sample)
            return sample

        # the POVMs are taken where sample_fidelity_curve draws them
        povmcert.fidelity.random_extremal_povms = capture

    def run_pass(self, client: Client, out: Path) -> dict:
        t = 0.0
        for witness, k, _, samples, width, _, _ in self.CASES:
            t += client([
                "fidelity-curve", "--witness", witness, "--k", f"{k:g}",
                "--samples", str(samples), "--bin-width", f"{width:g}",
                "--seed", str(self.seed), "--out-dir", str(out), "--out", f"fidelity-{witness}",
            ])
        return {"fidelity_curve_s": t}

    def check(self, pass_dirs: list[Path]) -> list[str]:
        failures = _identical_artifacts(pass_dirs)
        out = pass_dirs[0]
        expected = len(self.CASES) * len(pass_dirs)
        if len(self.draws) != expected:
            return failures + [f"captured {len(self.draws)} POVM draws, expected {expected}"]
        for case, sample in zip(self.CASES, self.draws):
            witness = case[0]
            samples = oracles.samples_from_csv((out / f"fidelity-{witness}.samples.csv").read_text())
            envelope = json.loads((out / f"fidelity-{witness}.envelope.json").read_text())
            failures += [f"{witness}: {m}" for m in self._check_case(case, sample, samples, envelope)]
        return failures

    @staticmethod
    def _check_case(case, sample, samples, envelope) -> list[str]:
        witness, k, target, n_samples, width, probe, (f_lo, f_hi) = case
        bad = []
        if [s for s, _, _ in samples] != list(range(n_samples)):
            bad.append(f"samples CSV does not hold every sample id 0..{n_samples - 1}")
        qmax = oracles.QUANTUM_MAX[witness]
        worst_f, worst_low = 0.0, 0
        for sid, a, f in samples:
            w, n = sample.weights[sid], sample.blochs[sid]
            worst_f = max(worst_f, abs(f - oracles.rotation_fidelity(w, n, target)))
            if a > qmax + 1e-9:
                bad.append(f"sample {sid}: witness value {a!r} above the quantum maximum")
            if a < oracles.anti_aligned_value(witness, k, w, n) - 1e-9:
                worst_low += 1
        if worst_f > 1e-6:
            bad.append(f"fidelity off the SVD oracle by up to {worst_f:.3g}")
        if worst_low:
            bad.append(f"{worst_low} witness values below a feasible strategy for their POVM")

        rebinned = oracles.rebin(samples, width)
        got = [(b["a_lo"], b["a_hi"], b["min_f"], b["count"]) for b in envelope["bins"]]
        same = len(got) == len(rebinned) and all(
            math.isclose(g[0], r[0], abs_tol=1e-12) and math.isclose(g[1], r[1], abs_tol=1e-12)
            and g[2] == r[2] and g[3] == r[3]
            for g, r in zip(got, rebinned)
        )
        if not same:
            bad.append("envelope bins differ from the re-binned samples CSV")
        floor = oracles.floor_at(rebinned, probe)
        if floor is None or not (f_lo <= floor <= f_hi):
            bad.append(f"floor {floor!r} at A={probe} not in [{f_lo}, {f_hi}]")
        return bad


# -------------------------------------------------------------------- sweep


class Sweep:
    """Noise-robustness sweeps: one see-saw batch per k point."""

    name = "sweep"
    CURVES = (("sic", "three-outcome"), ("sic", "projective"), ("trine", "projective"))
    K_STEP = 0.05
    GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    RESTARTS = 8
    items, rate_name = len(CURVES) * len(GRID), "k_points_per_s"  # k points per pass

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, client: Client, out: Path) -> dict:
        t = 0.0
        for witness, kind in self.CURVES:
            t += client([
                "visibility-curve", "--witness", witness, "--kind", kind,
                "--kgrid", ",".join(f"{k:g}" for k in self.GRID), "--restarts", str(self.RESTARTS),
                "--seed", str(self.seed), "--out-dir", str(out),
                "--out", f"visibility-{witness}-{kind}.csv",
            ])
        return {"visibility_curve_s": t}

    def check(self, pass_dirs: list[Path]) -> list[str]:
        failures = _identical_artifacts(pass_dirs)
        out = pass_dirs[0]
        curves = {}
        for witness, kind in self.CURVES:
            lines = (out / f"visibility-{witness}-{kind}.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            curves[(witness, kind)] = {float(k): (float(b), float(v)) for k, _, b, v in rows}
        grid = list(self.GRID)
        wrong_grid = [key for key, curve in curves.items() if sorted(curve) != grid]
        if wrong_grid:
            return failures + [f"{w} {kind}: k grid is not {grid}" for w, kind in wrong_grid]
        for (witness, kind), curve in curves.items():
            a_q, a_r = oracles.QUANTUM_MAX[witness], oracles.a_rand(witness)
            for k, (bound, v) in curve.items():
                if bound > a_q + 1e-9:
                    failures.append(f"{witness} {kind} k={k}: bound {bound!r} above the quantum maximum")
                if not _close(v, oracles.critical_visibility(bound, k, a_q, a_r), 1e-12):
                    failures.append(f"{witness} {kind} k={k}: v_crit {v!r} does not follow from bound {bound!r}")
        three, proj = curves[("sic", "three-outcome")], curves[("sic", "projective")]
        for k in grid:
            if three[k][0] < proj[k][0] - 1e-9:
                failures.append(f"sic k={k}: three-outcome bound below the projective bound")
        for kind, expected in (("projective", 0.970), ("three-outcome", 0.990)):
            curve = curves[("sic", kind)]
            if not _close(curve[0.2][1], expected, 1e-3):
                failures.append(f"sic {kind}: v_crit(0.2) = {curve[0.2][1]!r}, expected {expected} +- 1e-3")
            best = min(curve, key=lambda k: curve[k][1])
            if abs(best - 0.2) > self.K_STEP + 1e-12:
                failures.append(f"sic {kind}: curve minimum at k={best}, more than a grid step from 0.2")
        return failures


WORKLOADS = {w.name: w for w in (Lab, Envelope, Sweep)}
