"""Influence estimation and seed-set maximization from i.i.d. simulations."""

from .graph import Graph, as_seed_tuple, read_edge_list, write_edge_list
from .models import (IC, LT, BDEP, MIXTURE, DiffusionModel,
                     ic_model, lt_model, bdep_model, mixture_model, sample_pool,
                     pack_rows, unpack_rows, propagation_steps, reach_mask_batch,
                     row_values, start_mask, ball_edges,
                     reverse_reach_set, load_model, save_model)
from .exact import (EnumerationBudgetError, ExactReport, VarianceAudit, DepthProfile,
                    ExactInfluence, exact_report, audit_variance_bound, c_value,
                    depth_profile, exact_influence_map, exact_values, outcome_count)
from .estimators import (AVERAGING, MEDIAN_OF_AVERAGES, FULL_SIMULATION, MARGINAL,
                         POOL_SIZE_FACTOR, POOL_COUNT_FACTOR, TOTAL_SAMPLE_FACTOR,
                         Oracle, OracleConfig, build_oracle, pool_counts,
                         count_pool_averages, mask_pool_averages, pool_median,
                         required_pools, size_for_guarantee, check_eps_approx,
                         rrs_estimate, marginal_edge_model, seed_set_pool_averages)
from .sketches import (NodeSketch, SketchSet, build_sketches, merge_sketches,
                       merged_seed_sketch, sketch_query)
from .maximize import (GreedyStep, MaximizerResult, AdaptiveRound, brute_force_max,
                       greedy_max, maximize_im, adaptive_maximize, im_oracle_config,
                       adaptive_schedule)
from . import families

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
