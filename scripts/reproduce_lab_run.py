#!/usr/bin/env python3
"""Recreate the full modeled lab analysis into ./lab-run/.

Simulates counts for both built-in optical setups at the published
photon budget, computes every bound, subtracts the exact angle-jitter
systematic, and certifies. Prints the three report paths.

    python3 scripts/reproduce_lab_run.py [--out-dir lab-run] [--seed 1]
          [--fast]
"""
import argparse
import sys

from povmcert.cli import main as cli


def run(args):
    rc = cli([str(a) for a in args])
    if rc != 0:
        sys.exit(rc)


def case(tag, witness, k, opts, extra_certify=()):
    base = ["--out-dir", opts.out_dir, "--seed", str(opts.seed)]
    counts = f"counts-{tag}.csv"
    run(["simulate", "--witness", witness, "--k", str(k), "--out", counts] + base)
    run(["bounds", "--witness", witness, "--k", str(k),
         "--restarts", str(opts.restarts), "--out", f"bounds-{tag}.json"] + base)
    run(["certify", "--counts", f"{opts.out_dir}/{counts}",
         "--witness", witness, "--k", str(k),
         "--bounds", f"{opts.out_dir}/bounds-{tag}.json",
         "--syst-runs",
         "--out", f"report-{tag}.json", *extra_certify] + base)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", default="lab-run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--fast", action="store_true", help="few restarts")
    opts = p.parse_args()
    if opts.fast:
        opts.restarts = 8

    case("sic-k0.2", "sic", 0.2, opts)
    case("trine-k1", "trine", 1, opts)
    case("trine-k4.5", "trine", 4.5, opts)


if __name__ == "__main__":
    main()
