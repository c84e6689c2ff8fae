"""Exact discrete causal inference.

Three capabilities over finite-domain causal models with hidden
confounders:

* identification of interventional distributions from observational
  joints (do-calculus / C-component recursion, hedge detection);
* active discovery of the true causal graph from a candidate set via a
  least-cost sequence of single-value interventions, with exact
  conditional-independence fallbacks;
* identification of effects and post-intervention trajectories in
  time-recurrent dynamic causal networks, including a restricted
  cross-domain transport.
"""

from .errors import (CyclicGraphError, InfiniteSpanError, InternalError,
                     InvalidInputError, PartialSupportError, PromiseViolationError,
                     UnsupportedModelError, UnsupportedQueryError,
                     UnsupportedTransportError, WindowTooSmallError)
from .factors import (EPS_CMP, EPS_NORM, Factor, TransitionMatrix, condition,
                      equal_within, marginalize, multiply)
from .graphs import (Admg, Hedge, Var, ancestors, c_components, d_separated,
                     descendants, find_hedge, mutilate, topological_order,
                     verify_hedge)
from .identify import (IdResult, Prediction, check_rule, effect_factor,
                       evaluate, id_effect, pretty)
from .scm import (Cpt, Exogenous, InterventionOracle, InterventionSpec, Scm,
                  ci_test, intervene, joint, oracle_query, random_admg,
                  random_scm)
from .alcam import (CandidateSet, CostModel, DiscoveryResult, InterventionCaps,
                    InterventionPlan, Partition, PredictionTable, Verdict,
                    alcam_run, distinguishable_by, enumerate_interventions,
                    id_edges, id_hidden, minimal_splitting_sets,
                    partition_candidates, power_of_intervention,
                    select_graphs, select_intervention)
from .dcn import (ConfounderClass, DcnMechanism, DcnSpec, DynamicTimeSpan,
                  SelectionVar, SliceCpt, SliceExo, TransportSpec,
                  cdcn_id_dynamic, cdcn_id_static, classify,
                  dcn_id_dynamic, dcn_id_static, dynamic_time_span,
                  initial_distribution, mechanism_transition, random_dcn_spec,
                  step_kernel_matrix, trajectory, transport, unroll,
                  unrolled_scm)

__version__ = "0.1.0"
