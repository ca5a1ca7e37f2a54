"""Natural occupation numbers, generalized Pauli constraints and pinning analysis."""

from .fock import (CapacityError, FermionState, OrbitalSpace, SlaterDeterminant,
                   natural_occupations, occupied, one_rdm, random_state, read_state_json,
                   rotate_orbitals, slater_masks, write_state_json)
from .gpc import (ConstraintCatalog, PauliConstraint, PinningReport, catalog,
                  catalog_from_json, catalog_to_json, evaluate, pinning_report,
                  truncate_spectrum)
from .harmonium import (BasisDeficitError, GroundStateSpec, HarmoniumParams, ScanPoint,
                        ScanResult, expand_in_hermite_basis, ground_state_spec,
                        quasipinning_scan)
from .selection import (PinningLemmaReport, bd_ansatz_state, out_of_support_weight,
                        verify_pinning_lemma, zero_eigenspace_slaters)
from .schubert import (DegenerateSpectrumError, Flag, HZReport, IndeterminateRankError,
                       InequalityVerdict, check_spectral_inequality, hersch_zwahlen_check,
                       induced_flag, partial_trace, schubert_membership)

__version__ = "0.1.0"
