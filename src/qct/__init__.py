"""Two-party quantum coin tossing over entanglement swapping.

`qct.bell` tracks Bell pairs symbolically (labels + XOR algebra),
`qct.oracle` is the dense statevector reference it is certified against,
`qct.protocol` runs one session under any strategy, honest or cheating,
`qct.adversary` evaluates both parties' cheating strategies by Monte
Carlo, `qct.analysis` holds the closed-form pass probability and
noise-robustness results, and `qct.crosscheck` / `qct.cli` wire
everything into a verifiable command-line tool.
"""

from types import ModuleType as _ModuleType

from .bell import (
    BellLabel,
    EntangledMatching,
    ParticleId,
    Party,
    PauliLabel,
    apply_pauli,
    total_parity,
)
from .protocol import (
    NoiseModel,
    SessionConfig,
    SessionTranscript,
    Sequence,
    Verdict,
    alice_verify,
    apply_noise,
    run_honest,
    run_session,
    toss_from_outcomes,
)
from .adversary import (
    ExperimentReport,
    Strategy,
    StrategyKind,
    best_guess_results,
    cycle_structure,
    run_cheat_experiment,
    run_fake_sequence_attack,
    run_reflect_attack,
)
from .analysis import (
    min_gamma,
    pass_prob_closed_form,
    pass_prob_composition_sum,
    pass_prob_permutation_model,
)

__version__ = "0.1.0"

# The names imported above, each stated once, plus the version.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
