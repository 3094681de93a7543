#!/usr/bin/env python3
"""Figure-scale fidelity envelopes for the SIC and trine witnesses.

Samples random extremal POVMs, maximizes the witness over the rest of
the strategy for each, and bins the (witness value, best fidelity)
cloud into lower envelopes. Full scale, the CLI's default sample
counts, takes a while; --desk drops to 10^4 samples per family.

    python3 scripts/fidelity_envelopes.py [--out-dir envelopes] [--desk]
"""
import argparse
import sys

from povmcert.cli import main as cli

DESK_SAMPLES = 10_000


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", default="envelopes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--desk", action="store_true", help="10^4 samples per family")
    opts = p.parse_args()
    samples = ["--samples", str(DESK_SAMPLES)] if opts.desk else []

    for witness, k, width in (("sic", 0.2, 0.002), ("trine", 1, 0.01)):
        rc = cli([
            "fidelity-curve", "--witness", witness, "--k", str(k),
            *samples, "--bin-width", str(width),
            "--seed", str(opts.seed), "--out-dir", opts.out_dir,
        ])
        if rc != 0:
            sys.exit(rc)


if __name__ == "__main__":
    main()
