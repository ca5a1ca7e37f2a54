#!/usr/bin/env python3
"""Walk through the pinning analysis on the three-fermion, six-orbital setting.

Realises a pinned spectrum as a Borland-Dennis state, computes its occupations,
evaluates the constraint catalog, reconstructs the allowed determinant
support from the saturated constraints, and checks the operator residual.
"""
import sys

import numpy as np

from qmarginal.fock import ket
from qmarginal.gpc import catalog, pinning_report, realise
from qmarginal.selection import natural_frame, verify_pinning_lemma, zero_eigenspace_slaters

# dyadic, so every occupation and the facet value 2 - lam1 - lam2 - lam4 = 0 are exact
PINNED_SPECTRUM = (7 / 8, 3 / 4, 5 / 8, 3 / 8, 1 / 4, 1 / 8)


def kets(masks) -> str:
    return " ".join(ket(mask) for mask in masks.tolist())


def main() -> int:
    cat = catalog(3, 6)
    state = realise(PINNED_SPECTRUM)
    space = state.space

    frame = natural_frame(state)
    lams = frame[0]
    print("occupations:", np.array2string(lams, precision=6))

    report = pinning_report(lams, cat)
    print("facet distance D_min:", f"{report.d_min:.3e}", f"({report.d_min_label})")
    print("saturated constraints:", ", ".join(report.saturated))

    equalities = [cat.by_label(f"bd-eq{i}") for i in (1, 2, 3)]
    eight = zero_eigenspace_slaters(equalities, space)
    print(f"\nuniversal support from the three equalities ({len(eight)} determinants):")
    print("  " + kets(eight))

    ansatz = zero_eigenspace_slaters(map(cat.by_label, report.saturated), space)
    print(f"support after saturating the facet too ({len(ansatz)} determinants):")
    print("  " + kets(ansatz))

    lemma, = verify_pinning_lemma(frame, [cat.by_label("bd-ineq")])
    print("\noperator residual on the pinned state:", f"{lemma.residual_norm:.3e}")
    print("facet value on its occupations:", f"{lemma.constraint_value:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
