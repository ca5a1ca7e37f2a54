#!/usr/bin/env python3
"""Walk through the pinning analysis on the three-fermion, six-orbital setting.

Builds a pinned three-determinant state, computes its occupation spectrum,
evaluates the constraint catalog, reconstructs the allowed determinant
support from the saturated constraints, and checks the operator residual.
"""
import math
import sys

import numpy as np

from qmarginal.fock import OrbitalSpace, SlaterDeterminant
from qmarginal.gpc import catalog, pinning_report
from qmarginal.selection import (bd_ansatz_state, natural_frame, verify_pinning_lemma,
                                 zero_eigenspace_slaters)


def kets(masks) -> str:
    return " ".join(str(SlaterDeterminant(mask)) for mask in masks.tolist())


def main() -> int:
    space = OrbitalSpace(d=6, n=3)
    cat = catalog(3, 6)
    state = bd_ansatz_state(space, math.sqrt(0.6), math.sqrt(0.3), math.sqrt(0.1))

    frame = natural_frame(state)
    lams = frame[0]
    print("occupations:", np.array2string(lams, precision=6))

    report = pinning_report(lams, cat)
    print("facet distance D_min:", f"{report.d_min:.3e}", f"({report.d_min_label})")
    print("saturated constraints:", ", ".join(report.saturated_labels()))

    equalities = [cat.by_label(f"bd-eq{i}") for i in (1, 2, 3)]
    eight = zero_eigenspace_slaters(equalities, space)
    print(f"\nuniversal support from the three equalities ({len(eight)} determinants):")
    print("  " + kets(eight))

    ansatz = zero_eigenspace_slaters(report.saturated, space)
    print(f"support after saturating the facet too ({len(ansatz)} determinants):")
    print("  " + kets(ansatz))

    lemma, = verify_pinning_lemma(frame, [cat.by_label("bd-ineq")])
    print("\noperator residual on the pinned state:", f"{lemma.residual_norm:.3e}")
    print("facet value on its occupations:", f"{lemma.constraint_value:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
