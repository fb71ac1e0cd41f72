"""Query optimization (paper Sections 4.1–4.2).

The optimizer re-optimizes every statement at each invocation, so it is
built to be cheap: a proprietary-style **branch-and-bound, depth-first
enumeration over left-deep processing trees**, with:

* heuristic table ranking that automatically defers Cartesian products;
* incremental prefix costing with aggressive pruning against the best
  complete plan ("the essence of the algorithm's branch-and-bound
  paradigm");
* an **optimizer governor** that spreads a quota of node visits unevenly
  across the search tree (half to the first child, half of the remainder
  to the next, ...), returns unused quota on prunes, and redistributes
  quota from the root whenever a new optimal plan improves the best cost
  by at least 20%;
* a **DTT-based cost model** whose objective is rank fidelity (eq. 3), not
  absolute accuracy, including the deliberately optimistic
  half-the-buffer-pool assumption for intermediate results;
* a **plan cache** for statements inside procedures, with a training
  period and decaying-logarithmic re-verification;
* a heuristic **bypass path** for simple single-table DML where the cost
  of optimization approaches the cost of execution.
"""

from repro.optimizer.plans import (
    FilterPlan,
    HashDistinctPlan,
    HashGroupByPlan,
    HashJoinPlan,
    IndexNLJoinPlan,
    IndexScanPlan,
    LimitPlan,
    NLJoinPlan,
    PlanNode,
    ProcedureScanPlan,
    ProjectPlan,
    SeqScanPlan,
    SortPlan,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.costmodel import CostModel, CostModelContext
from repro.optimizer.enumeration import EnumerationStats, JoinEnumerator, OptimizerGovernor
from repro.optimizer.optimizer import Optimizer, OptimizerResult
from repro.optimizer.plancache import PlanCache

__all__ = [
    "PlanNode",
    "SeqScanPlan",
    "IndexScanPlan",
    "FilterPlan",
    "ProjectPlan",
    "NLJoinPlan",
    "IndexNLJoinPlan",
    "HashJoinPlan",
    "HashGroupByPlan",
    "HashDistinctPlan",
    "SortPlan",
    "LimitPlan",
    "ProcedureScanPlan",
    "SelectivityEstimator",
    "CostModel",
    "CostModelContext",
    "JoinEnumerator",
    "OptimizerGovernor",
    "EnumerationStats",
    "Optimizer",
    "OptimizerResult",
    "PlanCache",
]
