"""Backprop-free solver for high-dimensional PDE residual networks.

Seed-locked symmetric zeroth-order estimation in implicit low-rank
subspaces, with randomized per-dimension operator subsampling and a
theory-verification harness.
"""

__version__ = "0.1.0"

from .net import (
    IndexSets,
    MlpParams,
    PerturbView,
    SignPair,
    ansatz,
    forward,
    index_sets,
    init_mlp,
    jet_sums,
    plain_view,
)
from .optimizer import (
    SdzeConfig,
    StepRecord,
    TrainResult,
    lr_schedule,
    sdze_step,
    train,
)
from .rng import Role, RngStream, StreamKey, derive_stream, gaussian_matrix, sample_index_set
from .spatial import (
    DrawnSample,
    ExactSolutionView,
    PdeProblem,
    SpatialSample,
    draw_sample,
    exact_solution,
    make_problem,
    relative_l2,
    rhs_eval,
    sample_unit_ball,
    sampled_operator,
    stochastic_loss,
)
from .subspace import (
    LayerSubspace,
    ReshapePlan,
    apply_rank_r_update,
    maybe_refresh,
    plan_reshape,
    refresh_bases,
    sample_core,
)
from .workspace import Workspace

__all__ = [
    "IndexSets",
    "MlpParams",
    "PerturbView",
    "SdzeConfig",
    "SignPair",
    "StepRecord",
    "TrainResult",
    "Workspace",
    "Role",
    "RngStream",
    "StreamKey",
    "LayerSubspace",
    "ReshapePlan",
    "DrawnSample",
    "ExactSolutionView",
    "PdeProblem",
    "SpatialSample",
    "ansatz",
    "apply_rank_r_update",
    "derive_stream",
    "draw_sample",
    "exact_solution",
    "forward",
    "gaussian_matrix",
    "index_sets",
    "init_mlp",
    "jet_sums",
    "lr_schedule",
    "make_problem",
    "maybe_refresh",
    "plain_view",
    "plan_reshape",
    "refresh_bases",
    "relative_l2",
    "rhs_eval",
    "sample_core",
    "sample_index_set",
    "sample_unit_ball",
    "sampled_operator",
    "sdze_step",
    "stochastic_loss",
    "train",
]
