"""Shared-buffer switch simulation and prediction-augmented buffer sharing.

A discrete-time simulator for an output-queued switch whose packet buffer is
shared across all ports, together with classic buffer-sharing policies
(CompleteSharing, DynamicThresholds, push-out LongestQueueDrop), the
threshold-following drop-tail policies FollowLqd and Credence, drop-prediction
oracles and a small random-forest trainer for them, and analysis tools for
measuring prediction error and empirical competitive ratios. A packet is
identified by its arrival index: 0, 1, 2, ... in arrival order.
"""

from .core import (
    ArrivalSequence,
    RunResult,
    SwitchConfig,
    SwitchState,
    Verdict,
    load_sequence,
    run_simulation,
    save_outcomes,
    save_sequence,
)
from .policies import (
    ACCEPT,
    DROP,
    CompleteSharing,
    Credence,
    Decision,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    Policy,
    ThresholdState,
    threshold_levels,
)
from .oracles import (
    ConstantOracle,
    FeatureTracker,
    FeatureVector,
    FlipOracle,
    ForestOracle,
    PerfectOracle,
    PredictionLabel,
    ground_truth_from_run,
)
from .learner import (
    ConfusionCounts,
    EvalMetrics,
    ForestModel,
    LabeledExample,
    collect_trace,
    evaluate,
    evaluate_on,
    load_forest,
    save_forest,
    split_examples,
    train_forest,
    tree_count_sweep,
)
from .analysis import (
    ErrorReport,
    InstanceTooLarge,
    SweepRow,
    brute_force_opt,
    competitive_sweep,
    compute_eta,
    eta_upper_bound,
    find_threshold_divergence,
    simulate_with_prediction_log,
    throughput,
)
from . import workloads

__version__ = "0.1.0"
