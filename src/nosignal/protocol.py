"""Outcome probabilities for the two-wing post-selection protocol.

One wing (Alice) measures spin along omega or along z on her half of a
singlet pair; the other wing (Bob) sends the partner through the
non-ideal device, keeps the upper half, and measures sigma_theta.  The
observable quantity is the total probability that a pair ends with Bob
recording +1.  No-signalling demands this be independent of Alice's
setting choice, which pins the post-selected relative phases to
cos(phi_plus) + cos(phi_minus) = 0.

closed_form_rows is the closed form: one omega's rows, with the terms that
do not depend on theta computed once; sweep tabulates it.  With E the
saturated error fraction and s = sqrt(E(1-E)):

    Alice branch (probability 1/2, survival 1/2), +1 at theta:
        p_branch = 1/8 [1 + (1-2E) cos(theta) + 2 s sin(omega) sin(theta) cos(phi)]
    rotated-setting total:
        P_A = 1/4 [1 + (1-2E) cos(theta)
                   + s sin(omega) sin(theta) (cos phi_+ + cos phi_-)]
    aligned-setting branches and total:
        P_B = 1/4 (1 + cos theta)(1 - E) + 1/4 (1 - cos theta) E
            = 1/4 [1 + (1-2E) cos(theta)]

The residual P_A - P_B is the signalling figure of merit.  The pipeline
reproduces it end to end from the post-selected spins instead of the
closed form.  Only four post-selected spins enter it per omega, none of
them theta dependent: branch_table takes the device's upper-half overlaps
(I+, I-, C) once, at the one closed-form time phase_settle_time, then
conditions the singlet and post-selects each branch's spin with that
triple, and cell_records turns a table entry and the thetas into Born
probabilities: branch_totals makes one born_probabilities call per
branch, over every theta.  verify writes cell_records' dicts as
report.json's cells, and sweep tabulates closed_form_rows from the same
table's phases.

The two split P_A into branches differently.  closed_form_rows gives each
branch a survival of 1/2 and takes only Es and the phases, so sweep's rows do
not depend on the model (apart from its column).  cell_records weights each
branch by its own select_prob and reads it in the model's state.  So sweep's
pA_plus and pA_minus are not verify's: on configs/default.json they differ by
up to 0.173 (omega = pi/6) under both models, while PA_total, PB_plus,
PB_minus, PB_total and residual agree to 2e-16, and Es and the phases are
equal.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import PostSelectionError
from .postselect import PostSelectedSpin, model_state, project_upper
from .spin import born_probabilities, singlet_conditional
from .wavepacket import SGConfig, phase_settle_time, upper_overlaps

__all__ = [
    "ProtocolResult",
    "closed_form_rows",
    "BranchTable",
    "branch_table",
    "branch_phase",
    "branch_totals",
    "cell_records",
]

MODELS = ("pure", "projected")
_PTOL = 1e-12


def _assert_probability(p: float, upper: float) -> float:
    # out-of-range values are bug signals, not data to clamp
    assert -_PTOL <= p <= upper + _PTOL, f"probability {p} outside [0, {upper}]"
    return p


class ProtocolResult(NamedTuple):
    """All protocol probabilities for one setting pair, JSON-serializable."""

    omega: float
    theta: float
    Es: float
    phi_plus: Optional[float]
    phi_minus: Optional[float]
    pA_plus: float
    pA_minus: float
    PA_total: float
    PB_plus: float
    PB_minus: float
    PB_total: float
    residual: float
    model: str


def closed_form_rows(
    es: float,
    omega: float,
    thetas: Sequence[float],
    phi_plus: Optional[float],
    phi_minus: Optional[float],
    model: str,
) -> List[ProtocolResult]:
    """One omega's ProtocolResults, per theta, from the closed forms in the
    module docstring.

    Phases may be None on degenerate branches (no coherence); the
    coherence terms are then identically zero.  The terms that do not
    depend on theta are computed once.
    """
    if not 0.0 <= es <= 1.0:
        raise ValueError(f"error fraction must be in [0, 1], got {es}")
    if phi_plus is None or phi_minus is None:
        weight, phases = 0.0, (0.0, 0.0)
    else:
        weight, phases = math.sin(omega), (phi_plus, phi_minus)
    scale = 2.0 * weight * math.sqrt(es * (1.0 - es))
    cos_plus, cos_minus = math.cos(phases[0]), math.cos(phases[1])
    rows = []
    for theta in thetas:
        cos_theta = math.cos(theta)
        pb_plus = _assert_probability(0.25 * (1.0 + cos_theta) * (1.0 - es), 0.5)
        pb_minus = _assert_probability(0.25 * (1.0 - cos_theta) * es, 0.5)
        base = 1.0 + (1.0 - 2.0 * es) * cos_theta
        coherence = scale * math.sin(theta)
        pa_plus = _assert_probability(0.125 * (base + coherence * cos_plus), 0.25)
        pa_minus = _assert_probability(0.125 * (base + coherence * cos_minus), 0.25)
        pa_total = pa_plus + pa_minus
        pb_total = pb_plus + pb_minus
        rows.append(
            ProtocolResult(
                omega, theta, es, phi_plus, phi_minus, pa_plus, pa_minus,
                pa_total, pb_plus, pb_minus, pb_total, pa_total - pb_total, model,
            )
        )
    return rows


# (branch probability, post-selected spin or None when nothing is selected)
Branch = Tuple[float, Optional[PostSelectedSpin]]
# (omega, {+1: Branch, -1: Branch})
Entry = Tuple[float, Dict[int, Branch]]


class BranchTable(NamedTuple):
    """Post-selected spins of one device: Alice's z setting (aligned) and one
    (omega, branches) entry per remote setting (rotated), in the order given.

    Branch keys follow Bob's conditioned polarization: his state is the -a
    eigenstate when Alice sees a, so a = -1 feeds the +1 branch.
    """

    Es: float
    aligned: Dict[int, Branch]
    rotated: List[Entry]


def branch_table(sg: SGConfig, omegas: Iterable[float]) -> BranchTable:
    """Condition the singlet, traverse the device and post-select, per branch.

    Every beam flies for phase_settle_time(sg), the closed-form time when the
    chirp-induced coherence phase has fallen below a quarter of 1e-10 rad;
    the error fraction has saturated well before.  The device's overlaps
    (I+, I-, C) at that time serve every branch, and Es is their I-.  A
    branch that selects nothing (exactly ideal device, wrong-polarized
    input) carries None.
    """
    overlaps = upper_overlaps(sg, phase_settle_time(sg))

    def branches(alice_axis: float) -> Dict[int, Branch]:
        out = {}
        for alice_outcome in (+1, -1):
            prob, bob_state = singlet_conditional(alice_axis, alice_outcome)
            try:
                post = project_upper(bob_state, overlaps)
            except PostSelectionError:
                post = None
            out[-alice_outcome] = (prob, post)
        return out

    aligned = branches(0.0)
    # aligned-setting branches are spin eigenstates of the device axis;
    # a defined phase here would mean the projection leaked coherence
    assert all(post is None or post.phase is None for _, post in aligned.values()), (
        "aligned branch unexpectedly carries coherence"
    )
    return BranchTable(
        Es=overlaps[1],
        aligned=aligned,
        rotated=[(float(omega), branches(float(omega))) for omega in omegas],
    )


def branch_phase(branch: Branch) -> Optional[float]:
    """Relative phase of a branch's post-selected spin; None if it has none."""
    post = branch[1]
    return None if post is None else post.phase


def branch_totals(
    branches: Dict[int, Branch], thetas: Sequence[float], model: str
) -> List[Dict[int, float]]:
    """Per theta, per branch, the probability that Bob's post-selected spin
    reads +1 at theta.

    Each branch's model state and weight prob * select_prob are built once,
    and its Born probabilities come from one born_probabilities call over
    every theta.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    # a branch that selects nothing reads +1 with probability 0
    totals = [dict.fromkeys(branches, 0.0) for _ in thetas]
    axes = [float(theta) for theta in thetas]
    for s, (prob, post) in branches.items():
        if post is None:
            continue
        weight, state = prob * post.select_prob, model_state(post, model)
        for row, p in zip(totals, born_probabilities(state, axes, +1)):
            row[s] = weight * p
    return totals


def cell_records(
    table: BranchTable,
    entry: Entry,
    thetas: Sequence[float],
    model: str,
    aligned: Sequence[Dict[int, float]],
    **extra,
) -> List[dict]:
    """Born probabilities of one omega's cells from a table entry, per theta:
    one dict per cell, keyed by ProtocolResult's fields and then by extra's.

    The residual compares the rotated setting against the aligned one;
    under unitary dynamics plus Born statistics it vanishes to rounding.
    ``aligned`` is ``branch_totals(table.aligned, thetas, model)``, which
    does not depend on omega, so callers compute it once per run.
    """
    omega, rotated = entry
    es = table.Es
    phi_plus, phi_minus = branch_phase(rotated[+1]), branch_phase(rotated[-1])
    records = []
    for theta, pa, pb in zip(thetas, branch_totals(rotated, thetas, model), aligned):
        pa_total, pb_total = pa[+1] + pa[-1], pb[+1] + pb[-1]
        records.append({
            "omega": omega,
            "theta": float(theta),
            "Es": es,
            "phi_plus": phi_plus,
            "phi_minus": phi_minus,
            "pA_plus": pa[+1],
            "pA_minus": pa[-1],
            "PA_total": pa_total,
            "PB_plus": pb[+1],
            "PB_minus": pb[-1],
            "PB_total": pb_total,
            "residual": pa_total - pb_total,
            "model": model,
            **extra,
        })
    return records
