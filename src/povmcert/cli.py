"""Command-line front end: bounds, curves, simulation, certification.

Every invocation is deterministic for a fixed seed, and every file
artifact gets a sidecar manifest (<artifact>.manifest.json) recording
the command, parameters, seed, version, output list, and wall-clock
duration.  Data artifacts are byte-reproducible; the manifest is not
(it carries the duration).

Exit codes: 0 success (including "ran and said no" verdicts), 1
computation or write failure, 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .experiment import (
    ExperimentConfig,
    certify,
    counts_from_csv,
    counts_to_csv,
    ingest_counts,
    plate_systematic,
    sic_experiment,
    simulate_counts,
    trine_experiment,
)
from .fidelity import (
    EnvelopeCurve,
    sample_fidelity_curve,
    sic_target,
    trine_target,
    write_samples_csv,
)
from .optimize import BOUND_SLOTS, BoundResult, OptimizerConfig, slot_bounds
from .robustness import BOUND_KINDS, visibility_curve, visibility_curve_to_csv
from .sampling import RngStream
from .witness import WITNESS_BUILDERS, WitnessSpec, build_witness

FAMILIES = sorted(WITNESS_BUILDERS)

# figure-scale defaults; CI-scale runs override with --samples
DEFAULT_SAMPLES = {"sic": 300_000, "trine": 3_000, "sym-trine": 3_000}

BUILTIN_EXPERIMENTS = {"sic": sic_experiment, "trine": trine_experiment}


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    env = os.environ.get("POVMCERT_OUT_DIR")
    return Path(env) if env else Path(".")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit_manifest(
    primary: Path, command: str, args: argparse.Namespace, outputs: list[Path], t0: float
) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    manifest = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "parameters": params,
        "outputs": [p.name for p in outputs],
        "duration_s": round(time.perf_counter() - t0, 3),
    }
    _write(primary.with_name(primary.name + ".manifest.json"), json.dumps(manifest, indent=2))


def _parse_kinds(text: str | None) -> list[str] | None:
    if text is None:
        return None
    kinds = [t.strip() for t in text.split(",") if t.strip()]
    bad = [t for t in kinds if t not in BOUND_SLOTS]
    if bad:
        raise ValueError(f"unknown bound kinds {bad}; choose from {list(BOUND_SLOTS)}")
    if not kinds:
        raise ValueError(f"--kinds names no bound; choose from {list(BOUND_SLOTS)}")
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"--kinds repeats a bound: {kinds}")
    return kinds


def _parse_kgrid(text: str | None) -> list[float] | None:
    if text is None:
        return None
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("k grid range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not np.isfinite(value):
                raise ValueError(f"k grid {name} must be finite, got {value}")
        if step <= 0:
            raise ValueError("k grid step must be positive")
        # round off accumulation drift so grid artifacts print cleanly
        return [round(float(k), 10) for k in np.arange(start, stop + step / 2, step)]
    return [float(p) for p in text.split(",") if p.strip()]


def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, seed=args.seed)


def _compute_bounds(spec: WitnessSpec, config: OptimizerConfig, kinds: list[str] | None = None) -> list[BoundResult]:
    """Bounds of `kinds` in order; by default projective, three-outcome
    (four-outcome witnesses only) and quantum, as `certify` needs them."""
    if kinds is None:
        kinds = [kind for kind in BOUND_SLOTS if kind != "three-outcome" or spec.scenario.povm_outcomes == 4]
    return [slot_bounds([spec], kind, config)[0] for kind in kinds]


def _bounds_csv(results: list[BoundResult]) -> str:
    lines = ["kind,value,k,heuristic"]
    for b in results:
        lines.append(f"{b.kind},{b.value!r},{b.k!r},{int(b.heuristic)}")
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, command: str, text: str, out_name: str | None, t0: float) -> None:
    """Print to stdout, or write the artifact plus manifest when named."""
    if out_name is None:
        print(text, end="" if text.endswith("\n") else "\n")
        return
    path = _out_dir(args) / out_name
    _write(path, text)
    _emit_manifest(path, command, args, [path], t0)
    print(str(path))


# ---------------------------------------------------------------- commands


def cmd_bounds(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = build_witness(args.witness, args.k)
    config = _optimizer_config(args)
    results = _compute_bounds(spec, config, _parse_kinds(args.kinds))
    if args.format == "csv":
        text = _bounds_csv(results)
    else:
        payload = {
            "witness": args.witness,
            "k": args.k,
            "bounds": [b.to_dict() for b in results],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(args, "bounds", text, args.out, t0)
    return 0


def cmd_fidelity_curve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = build_witness(args.witness, args.k)
    target = sic_target() if spec.scenario.povm_outcomes == 4 else trine_target()
    samples = args.samples if args.samples is not None else DEFAULT_SAMPLES[args.witness]
    points, envelope = sample_fidelity_curve(
        spec,
        target,
        n_samples=samples,
        bin_width=args.bin_width,
        stream=RngStream(args.seed),
        config=_optimizer_config(args),
    )
    stem = args.out or f"fidelity-{args.witness}-k{args.k:g}"
    out = _out_dir(args)
    samples_path = out / f"{stem}.samples.csv"
    envelope_path = out / f"{stem}.envelope.json"
    samples_path.parent.mkdir(parents=True, exist_ok=True)
    with samples_path.open("w", newline="") as fh:
        write_samples_csv(points, fh)
    envelope = dataclasses.replace(envelope, witness=args.witness, k=args.k)
    _write(envelope_path, envelope.to_json() + "\n")
    _emit_manifest(samples_path, "fidelity-curve", args, [samples_path, envelope_path], t0)
    print(str(samples_path))
    print(str(envelope_path))
    return 0


def _load_bounds_file(path: str, witness: str, k: float) -> list[BoundResult]:
    """Bounds from a `bounds --out` JSON, which must be stamped with this run's witness and k."""
    data = json.loads(Path(path).read_text())
    stamp = (data.get("witness"), data.get("k")) if isinstance(data, dict) else (None, None)
    if stamp != (witness, k):
        raise ValueError(
            f"bounds {path} were computed for witness={stamp[0]!r}, k={stamp[1]!r}; "
            f"this run is witness={witness!r}, k={k!r}"
        )
    entries = data.get("bounds")
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise ValueError(f"bounds {path}: 'bounds' must be a list of objects")
    if not all(isinstance(d.get("kind"), str) and isinstance(d.get("heuristic"), bool) for d in entries):
        raise ValueError(f"bounds {path}: every bound needs a string 'kind' and a true/false 'heuristic'")
    return [
        BoundResult(
            kind=d["kind"],
            value=float(d["value"]),
            k=float(d["k"]),
            heuristic=d["heuristic"],
            argmax=d.get("argmax"),
            diagnostics=d.get("diagnostics", {}),
        )
        for d in entries
    ]


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        builder = BUILTIN_EXPERIMENTS.get(args.witness)
        if builder is None:
            raise ValueError(
                f"no built-in optical configuration for {args.witness!r}; pass --config"
            )
        cfg = builder()
    if getattr(args, "budget", None) is not None:
        cfg = dataclasses.replace(cfg, photon_budget=args.budget)
    return cfg


def cmd_certify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.syst_runs < 0:
        raise ValueError("--syst-runs must be >= 0")
    if args.config is not None and not args.syst_runs:
        raise ValueError("--config only feeds the --syst-runs plate systematic; pass --syst-runs too")
    spec = build_witness(args.witness, args.k)
    records = counts_from_csv(Path(args.counts).read_text())
    table = ingest_counts(records)

    envelope = None
    if args.envelope is not None:
        try:
            envelope = EnvelopeCurve.from_json(Path(args.envelope).read_text())
        except ValueError as exc:
            raise ValueError(f"envelope {args.envelope}: {exc}") from exc
        if (envelope.witness, envelope.k) != (args.witness, args.k):
            raise ValueError(
                f"envelope {args.envelope} was sampled for witness={envelope.witness!r}, "
                f"k={envelope.k!r}; this run is witness={args.witness!r}, k={args.k!r}"
            )

    # built on both paths, so --restarts is checked even when --bounds skips the search
    config = _optimizer_config(args)
    if args.bounds is not None:
        bounds = _load_bounds_file(args.bounds, args.witness, args.k)
    else:
        bounds = _compute_bounds(spec, config)

    syst = args.syst_err
    if args.syst_runs:
        syst = plate_systematic(_experiment_config(args), spec)

    report = certify(table, spec, bounds, envelope=envelope, syst_err=syst)
    _emit(args, "certify", report.to_json() + "\n", args.out, t0)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = build_witness(args.witness, args.k)
    cfg = _experiment_config(args)
    records = simulate_counts(cfg, spec, RngStream(args.seed))
    name = args.out or f"counts-{args.witness}-k{args.k:g}.csv"
    _emit(args, "simulate", counts_to_csv(records), name, t0)
    return 0


def cmd_visibility_curve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    curve = visibility_curve(
        args.witness, args.kind, _parse_kgrid(args.kgrid), _optimizer_config(args)
    )
    if args.format == "json":
        text = json.dumps([dataclasses.asdict(p) for p in curve], indent=2) + "\n"
    else:
        text = visibility_curve_to_csv(curve)
    out_name = args.out or f"visibility-{args.witness}-{args.kind}.{args.format}"
    _emit(args, "visibility-curve", text, out_name, t0)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(
    p: argparse.ArgumentParser, restarts: int | None = 32, format_default: str | None = None
) -> None:
    """--seed and --out-dir; --restarts unless `restarts` is None; --format when given a default."""
    # per-subparser, not a shared parent: parents=[...] would share the
    # action objects, so one subparser's set_defaults would leak to all
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out-dir", default=None, help="output directory (default: . or POVMCERT_OUT_DIR)")
    if format_default is not None:
        p.add_argument("--format", choices=("json", "csv"), default=format_default, help="stdout/file format")
    if restarts is not None:
        p.add_argument("--restarts", type=int, default=restarts, help="optimizer restarts")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The povmcert argument parser, built on first use and kept for the process.

    Reuse is safe: `parse_args` returns a fresh Namespace each call, no
    default is mutable, each subparser owns its actions (`_add_common`),
    and the commands look their helpers up when they run.
    """
    parser = argparse.ArgumentParser(
        prog="povmcert",
        description="Certify and self-test qubit POVMs from prepare-and-measure statistics.",
    )
    parser.add_argument("--version", action="version", version=f"povmcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="witness bounds for one family and k")
    _add_common(p, format_default="json")
    p.add_argument("--witness", required=True, choices=FAMILIES)
    p.add_argument("--k", type=float, required=True, help="penalty weight")
    p.add_argument("--kinds", default=None, help="comma list from projective,three-outcome,quantum")
    p.add_argument("--out", default=None, help="write JSON/CSV artifact instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fidelity-curve", help="sampled (witness value, fidelity) scatter and envelope")
    _add_common(p, restarts=8)
    p.add_argument("--witness", required=True, choices=FAMILIES)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--samples", type=int, default=None, help="POVM samples (default: figure scale per family)")
    p.add_argument("--bin-width", type=float, default=0.002)
    p.add_argument("--out", default=None, help="artifact stem (default fidelity-<witness>-k<k>)")
    p.set_defaults(func=cmd_fidelity_curve)

    p = sub.add_parser("certify", help="evaluate a counts file and issue verdicts")
    _add_common(p)
    p.add_argument("--counts", required=True, help="counts CSV (x,y,b,n)")
    p.add_argument("--witness", required=True, choices=FAMILIES)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--bounds", default=None, help="reuse a bounds JSON artifact instead of recomputing")
    p.add_argument("--envelope", default=None, help="envelope JSON from fidelity-curve with the same witness and k")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--syst-err", type=float, default=0.0, help="systematic error to subtract")
    group.add_argument(
        "--syst-runs", type=int, nargs="?", const=1, default=0,
        help="subtract the exact plate-jitter systematic; an optional positive count "
        "is accepted and does not change the result",
    )
    p.add_argument("--config", default=None, help="experiment config JSON whose plates --syst-runs models")
    p.add_argument("--out", default=None, help="write report JSON instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="synthesize a counts file for the modeled setup")
    _add_common(p, restarts=None)
    p.add_argument("--witness", required=True, choices=FAMILIES)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--config", default=None, help="experiment config JSON (default: built-in published setup)")
    p.add_argument("--budget", type=float, default=None, help="override photon budget per setting")
    p.add_argument("--out", default=None, help="counts CSV name (default counts-<witness>-k<k>.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("visibility-curve", help="critical visibility across penalty weights")
    _add_common(p, format_default="csv")
    p.add_argument("--witness", required=True, choices=FAMILIES)
    p.add_argument("--kind", required=True, choices=BOUND_KINDS)
    p.add_argument("--kgrid", default=None, help="comma list or start:stop:step (default 0.01:1:0.01)")
    p.add_argument("--out", default=None, help="CSV name (default visibility-<witness>-<kind>.csv)")
    p.set_defaults(func=cmd_visibility_curve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # abort paths: optimizer failures, bugs
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
