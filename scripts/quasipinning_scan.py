#!/usr/bin/env python3
"""Scaling study of the trapped-fermion model.

Scans the interaction strength, writes the facet-distance and Hartree-Fock
distance table, and reports the power-law exponents fitted against the
relative-mode squeeze parameter xi = (omega_rel - 1) / (omega_rel + 1), where
the laws are clean 8th and 4th powers.

Usage: python scripts/quasipinning_scan.py [--kmin 0.05] [--kmax 0.3]
       [--points 8] [--basis 28] [--out scan.csv]
"""
import argparse
import sys

import numpy as np

from qmarginal.cli import dumps
from qmarginal.harmonium import QuadratureSpec, quasipinning_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmin", type=float, default=0.05)
    parser.add_argument("--kmax", type=float, default=0.3)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--basis", type=int, default=28)
    parser.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args()

    kappas = np.geomspace(args.kmin, args.kmax, args.points)
    result = quasipinning_scan(kappas, quad=QuadratureSpec(basis_size=args.basis))

    rows = ["kappa,D,hf_dist,eps6,norm_deficit"]
    for p in result.points:
        rows.append(",".join(format(v, ".17g") for v in
                             (p.kappa, p.d_value, p.hf_distance, p.eps6, p.norm_deficit)))
    table = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table)
    else:
        sys.stdout.write(table)

    summary = {
        "d_exponent_vs_xi": result.d_slope,
        "hf_exponent_vs_xi": result.hf_slope,
        "basis_size": result.basis_size,
        "nodes_per_axis": result.nodes,
    }
    print(dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
