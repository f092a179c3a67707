// ULFM-integrated elastic training for the synthetic evaluation plans
// (Figs. 2 and 4-7, the ablations and Table 2): launches a
// horovod::SyntheticPlan's founders and joiners, and every rank runs
// the one ElasticTrainer loop over a declared-size SyntheticWorkload.
//
// Key behavioural differences from the Elastic Horovod baseline (paper
// Section 3):
//  * A failure repairs the communicator in place (revoke/agree/shrink)
//    and re-executes only the failed allreduce; no rendezvous, no
//    checkpoint restore, no mini-batch recompute.
//  * No per-step checkpoint commits at all, and no per-op response
//    negotiation (the plan's response_cache flag applies to the
//    baseline only).
//  * Joiners are provisioned *ahead* of the epoch boundary at which they
//    merge, so their cold start overlaps the survivors' degraded-mode
//    training instead of sitting on the critical path.
#pragma once

#include "horovod/plan.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace rcc::core {

horovod::RunStats RunUlfmElastic(sim::Cluster& cluster,
                                 const horovod::SyntheticPlan& plan,
                                 trace::Recorder* rec);

}  // namespace rcc::core
