"""Spans around qmarginal's layer functions, kept in memory.

The benchmark wraps functions from outside the program: each function in
TRACED is replaced by a wrapper under every name that binds it in any loaded
`qmarginal` module.  Names bound by `from .x import f` (harmonium and
selection bind one_rdm, fock binds jacobi_eigh, harmonium binds catalog,
evaluate and truncate_spectrum) are separate bindings; the scan finds them by
identity, so a new binding is wrapped too instead of silently losing spans.

Inner-loop helpers (fock.apply_creator, selection.slater_value, schubert's
per-trial samplers) are not wrapped: they run 10^4-10^5 times per op, and a
span each would cost more than the work it measures.  Their time counts as
self time of the traced function that calls them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = (
    ("harmonium", "expand_in_hermite_basis"),
    ("harmonium", "ground_state_spec"),
    ("fock", "one_rdm"),
    ("fock", "natural_occupations"),
    ("fock", "rotate_orbitals"),
    ("fock", "read_state_json"),
    ("linalg", "jacobi_eigh"),
    ("gpc", "pinning_report"),
    ("gpc", "truncate_spectrum"),
    ("gpc", "catalog"),
    ("gpc", "evaluate"),
    ("selection", "verify_pinning_lemma"),
    ("selection", "zero_eigenspace_slaters"),
    ("selection", "out_of_support_weight"),
    ("schubert", "hersch_zwahlen_check"),
    ("schubert", "check_spectral_inequality"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{func}" for module, func in TRACED)
PACKAGE = "qmarginal"


class Tracer:
    """Records (name, start, end, parent, op) spans while enabled.

    A function TRACED names that the program no longer has is listed in
    `missing` and records no span; it does not stop the run.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, tracer.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return traced

    @property
    def bindings(self) -> list:
        """Every wrapped binding as 'module.attr'."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches)

    def enable(self, op) -> None:
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self.op = None

    def self_times(self) -> dict:
        """op -> span name -> summed self time (duration minus direct children)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        per_op = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            per_op[op][name] += (end - start) - covered[i]
        return per_op

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
