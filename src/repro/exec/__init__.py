"""Adaptive query execution (paper Sections 4.3–4.4).

Volcano-style iterators over column-major batches, with the paper's
adaptive behaviours:

* a **memory governor** enforcing the hard limit (¾·max-pool / active
  requests, eq. 4) and soft limit (pool / multiprogramming level, eq. 5),
  reclaiming memory top-down so producers are not starved by consumers;
* **hash join** that spills its largest partition at the soft limit and
  can switch to its optimizer-annotated **index-nested-loops alternate**
  after discovering the true build cardinality;
* **hash group by** with the low-memory fallback onto an indexed
  temporary table of partial groups;
* external **merge sort** under quota;
* an adaptive **RECURSIVE UNION** that re-plans its recursive arm every
  iteration;
* statistics **feedback hooks**: predicates evaluated over base columns
  during scans update the column histograms (Section 3.2);
* **intra-query parallelism** as a charging policy: a hash-join core runs
  the serial operators with its CPU shared first-come-first-serve by
  simulated workers (Section 4.4).
"""

from repro.exec.batch import Batch, pack
from repro.exec.expr import (
    evaluate,
    evaluate_batch,
    evaluate_predicate,
    evaluate_predicate_batch,
)
from repro.exec.memory import AdmissionQueue, MemoryGovernor, Task
from repro.exec.executor import Executor, ExecutionContext

__all__ = [
    "evaluate",
    "evaluate_batch",
    "evaluate_predicate",
    "evaluate_predicate_batch",
    "Batch",
    "pack",
    "AdmissionQueue",
    "MemoryGovernor",
    "Task",
    "Executor",
    "ExecutionContext",
]
