"""Non-ideal Stern-Gerlach post-selection simulator and no-signalling checks.

The package models spin-1/2 packets traversing a non-ideal Stern-Gerlach
device, post-selects the upper half plane, and verifies - in closed form,
against an independent grid solver, and with finite-sample statistics -
that the relative phases of the post-selected states obey the constraint
imposed by no-signalling between the wings of a singlet pair.

The names below are re-exported lazily (PEP 562): ``from nosignal import X``
imports only the submodule that defines X, so the command-line tool never
loads the grid solver's or the sampler's dependencies unless it uses them.
"""

import importlib

_EXPORTS = {
    "errors": """BoundaryLeakError ConfigError NormDriftError PhaseUndefinedError
        PostSelectionError""",
    "estimation": """MeasurementRecord PhaseEstimate Z_95 derive_seed
        estimate_error_fraction estimate_phase sample violation_bound
        wilson_interval""",
    "gridsolver": "GridResult GridSpec grid_solve",
    "postselect": """PostSelectedSpin constraint_residual extract_phase
        model_state postselected_pure_state project_upper shift_cosine""",
    "protocol": """BranchTable ProtocolResult branch_phase branch_table
        branch_totals cell_records closed_form_rows""",
    "spin": """SpinDensityMatrix SpinState born_probabilities born_probability
        make_spin_state sigma_eigenstate singlet_conditional""",
    "wavepacket": """SGConfig WavePacketPair asymptotic_error_fraction
        component_density phase_settle_time upper_overlaps""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
