"""Natural occupation numbers, generalized Pauli constraints and pinning analysis."""

__version__ = "0.1.0"
