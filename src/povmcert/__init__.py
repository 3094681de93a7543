"""Certify and self-test qubit POVMs from prepare-and-measure statistics.

The flat namespace below is the public API; the modules it pulls from
are importable on their own when finer-grained access is wanted:

- qubit: array-backed POVMs and state/axis checks, extremality
- witness: scenarios, witness coefficient tables, the three families
- sampling: seeded RNG streams and uniform extremal-POVM sampling
- optimize: the quantum maximum, projective and three-outcome bounds
- fidelity: sampled envelopes of the rotation fidelity to a target
- robustness: critical depolarizing visibility of each bound
- experiment: waveplate model, counts, exact plate-jitter systematic,
  certification
- cli: the `povmcert` command
"""

from .experiment import (
    ExperimentConfig,
    LAB_VISIBILITIES,
    Visibilities,
    WitnessReport,
    certify,
    counts_from_csv,
    counts_to_csv,
    expected_probabilities,
    ingest_counts,
    plate_systematic,
    sic_experiment,
    simulate_counts,
    trine_experiment,
)
from .fidelity import (
    EnvelopeCurve,
    TargetPovm,
    envelope_from_points,
    sample_fidelity_curve,
    sic_target,
    trine_target,
)
from .optimize import (
    BoundResult,
    OptimizerConfig,
    projective_bound,
    projective_bound_numeric,
    projective_bound_sic,
    projective_bound_sym_trine,
    quantum_bound,
    three_outcome_max,
)
from .qubit import Povm, classify_extremal, validate_povm
from .robustness import critical_visibility, most_robust_point, visibility_curve
from .sampling import RngStream, random_extremal_povms
from .witness import (
    ProbabilityTable,
    Scenario,
    Strategy,
    WitnessSpec,
    build_witness,
    evaluate_witness,
    probability_table,
    sic_witness,
    sym_trine_witness,
    trine_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "EnvelopeCurve",
    "ExperimentConfig",
    "LAB_VISIBILITIES",
    "OptimizerConfig",
    "Povm",
    "ProbabilityTable",
    "RngStream",
    "Scenario",
    "Strategy",
    "TargetPovm",
    "Visibilities",
    "WitnessReport",
    "WitnessSpec",
    "build_witness",
    "certify",
    "classify_extremal",
    "counts_from_csv",
    "counts_to_csv",
    "critical_visibility",
    "envelope_from_points",
    "evaluate_witness",
    "expected_probabilities",
    "ingest_counts",
    "most_robust_point",
    "plate_systematic",
    "probability_table",
    "projective_bound",
    "projective_bound_numeric",
    "projective_bound_sic",
    "projective_bound_sym_trine",
    "quantum_bound",
    "random_extremal_povms",
    "sample_fidelity_curve",
    "sic_experiment",
    "sic_target",
    "sic_witness",
    "simulate_counts",
    "sym_trine_witness",
    "three_outcome_max",
    "trine_experiment",
    "trine_target",
    "trine_witness",
    "validate_povm",
    "visibility_curve",
    "__version__",
]
