"""Simulation toolkit for photon-counting retinal identification protocols.

The eye is a photon counter whose per-spot transmission varies across the
retina and across people.  A device that knows one person's transmission map
can flash calibrated pulses at chosen spots and check whether the subject's
"seen / not seen" answers follow that map; an impostor — even one armed with
a perfect photodetector — sees statistically identical pulses everywhere and
can only guess.  This package provides the perception statistics, synthetic
map generation, honest and impostor subject models, four identification
strategies with their sizing solvers and optimality bounds, an eavesdropping
physics appendix, and a reproducible Monte Carlo harness with a CLI.
"""

from .alpha_map import (
    AlphaMap,
    PointPair,
    SpotClass,
    UniformBands,
    distribution_support,
    draw_interrogation_spot,
    generate_synthetic,
    load,
    save,
)
from .errors import (
    BoundInapplicableError,
    ConfigError,
    DomainError,
    Error,
    InfeasibleError,
    MapFormatError,
    MenuError,
    PlacementError,
)
from .harness import (
    RunConfig,
    RunContext,
    TrialRecord,
    TrialStats,
    load_config,
    merge_records,
    montecarlo,
    prepare,
    run_session,
    run_trial,
    trial_rng,
    write_artifacts,
)
from .photon_stats import (
    DEFAULT_THRESHOLD,
    gk,
    gk_inverse,
    prob_see,
    relative_entropy,
    solve_q_intensity,
)
from .physics_bounds import (
    EyeThermalModel,
    dipole_attenuation,
    magnetic_energy_resolution,
    temperature_resolution,
    thermal_energy_resolution,
)
from .strategy_bayes import (
    Outcome,
    Round,
    SequentialPlan,
    SequentialResult,
    design_wrong_probability,
    drift_bounds,
    optimality_lower_bound,
    prior_p,
    run_sequential,
    stopping_time_bounds,
)
from .strategy_naive import (
    NaiveResult,
    NaiveTestPlan,
    acceptance_counts,
    required_nu,
    run_naive,
)
from .strategy_pattern import (
    Glyph,
    GlyphLibrary,
    Menu,
    PatternChallenge,
    PatternPlan,
    PatternResult,
    RecognitionRule,
    alice_failure_bound,
    build_challenge,
    candidate_menu,
    false_positive_rate,
    glyph_library,
    optimize_intensity,
    recognize,
    run_pattern_test,
    simulate_perception,
)
from .strategy_serial import (
    SerialPlan,
    SerialResult,
    run_serial,
    solve_w_N,
)
from .subjects import (
    Adaptive,
    AliceSubject,
    Echo,
    EveContext,
    EveStrategy,
    FixedP,
    SubjectModel,
    UniformP,
    alice_response,
    build_subject,
    parse_eve_strategy,
)

__version__ = "0.1.0"
