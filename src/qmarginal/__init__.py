"""Natural occupation numbers, generalized Pauli constraints and pinning analysis."""

from .fock import (CapacityError, FermionState, OrbitalSpace, SlaterDeterminant,
                   apply_annihilator, apply_creator, enumerate_slaters,
                   natural_occupations, one_rdm, random_state, read_state_json,
                   rotate_orbitals, write_state_json)
from .gpc import (ConstraintCatalog, PauliConstraint, PinningReport, catalog,
                  catalog_from_json, catalog_to_json, evaluate, pinning_report,
                  truncate_spectrum)
from .harmonium import (BasisDeficitError, GroundStateSpec, HarmoniumParams,
                        QuadratureSpec, ScanPoint, ScanResult, expand_in_hermite_basis,
                        ground_state_residual, ground_state_spec, quasipinning_scan,
                        wavefunction)
from .selection import (PinningLemmaReport, bd_ansatz_state, out_of_support_weight,
                        reconstruct_ansatz, verify_pinning_lemma, zero_eigenspace_slaters)
from .schubert import (DegenerateSpectrumError, Flag, HZReport, IndeterminateRankError,
                       InequalityVerdict, check_spectral_inequality, hersch_zwahlen_check,
                       induced_flag, partial_trace, sample_schubert_cell,
                       schubert_membership, standard_flag)

__version__ = "0.1.0"
