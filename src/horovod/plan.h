// Shared data-parallel training middleware: gradient buckets (tensor
// fusion), synthetic training plans and elastic scenario scripts used by
// BOTH stacks - the Elastic Horovod baseline (this library) and the
// ULFM-integrated trainer (rcc::core), mirroring how the paper
// integrates ULFM *into* Horovod.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dnn/zoo.h"
#include "sim/failure.h"
#include "sim/params.h"

namespace rcc::horovod {

// A gradient bucket: small physical buffer + declared wire size. The
// physical floats are really reduced (numerics exercised); the virtual
// size drives the time model so full-size models fit in RAM at 192
// simulated GPUs (DESIGN.md "declared-size buckets").
struct Bucket {
  std::vector<float> data;
  double virtual_bytes = 0;
  double cost_scale() const {
    const double physical = static_cast<double>(data.size()) * sizeof(float);
    return physical > 0 ? virtual_bytes / physical : 1.0;
  }
};

// Builds the bucket set for a zoo spec: tensor sizes -> fusion buckets
// -> physical buffers capped at `max_physical_floats` each.
std::vector<Bucket> MakeBuckets(const dnn::ModelSpec& spec,
                                size_t fusion_bytes,
                                size_t max_physical_floats = 2048,
                                uint64_t seed = 42);

// Recovery granularity (the runtime flag the paper exposes; Elastic
// Horovod only supports kNode - Table 2).
enum class DropPolicy { kProcess, kNode };

// A scripted failure: the victim *rank of the current membership* dies
// while reducing bucket `bucket` of step `step` in epoch `epoch`.
// kNode scope takes the victim's whole node down.
struct ScriptedFailure {
  int epoch = 0;
  int step = 0;
  int bucket = 0;
  int victim_rank = 0;
  sim::FailScope scope = sim::FailScope::kProcess;
};

// A scripted join: `count` workers are admitted at the start of `epoch`.
// `cold` workers pay the full cold-start (library load + CUDA context);
// warm ones only the warm-start (pre-provisioned replacement).
struct ScriptedJoin {
  int epoch = 0;
  int count = 0;
  bool cold = true;
};

struct SyntheticPlan {
  dnn::ModelSpec spec;
  int initial_world = 12;
  int batch_per_worker = 32;
  int steps_per_epoch = 8;
  int epochs = 2;
  size_t fusion_bytes = 64u << 20;  // Horovod default fusion threshold
  size_t max_physical_floats = 2048;
  bool response_cache = true;       // EH: skip per-op negotiation if cached
  // Rest-of-epoch padding: the simulated steps cover the mini-batches
  // around the scripted events; the remaining `padded_steps_per_epoch`
  // mini-batches of an ImageNet-scale epoch are charged analytically at
  // `padded_step_seconds` each (plus the per-step checkpoint commit for
  // the Elastic Horovod stack). This keeps epoch *lengths* realistic -
  // which is what lets ULFM overlap worker provisioning with degraded-
  // mode training - without simulating thousands of collectives.
  int padded_steps_per_epoch = 0;
  double padded_step_seconds = 0.0;
  // Nonblocking pipeline: 0 = blocking baseline (compute, then every
  // bucket's allreduce back-to-back). >= 1 overlaps bucketed allreduce
  // with backprop: each bucket's reduction is submitted as soon as its
  // backward slice produces it, with at most `inflight_window` ops
  // outstanding, and the optimizer step waits for all of them.
  int inflight_window = 0;
  // Asynchronous joiner admission: scripted joins open a nonblocking
  // rendezvous at the epoch boundary and splice the merged communicator
  // at a later step boundary once the joiners have staged the model
  // state in the background, instead of stalling every survivor for the
  // joiners' full bring-up (blocking ExpandComm).
  bool async_admission = false;
  DropPolicy drop_policy = DropPolicy::kNode;
  std::vector<ScriptedFailure> failures;
  std::vector<ScriptedJoin> joins;
};

// Aggregate outcome of one synthetic run.
struct RunStats {
  double completion_time = 0;  // virtual seconds, max over participants
  int final_world = 0;
  int steps_executed = 0;      // global steps completed (any worker)
  int resets = 0;              // EH resets / ULFM repairs performed
};

// Phase names shared by both runners so figure benches can align
// breakdowns (Fig. 4's x axis).
namespace phase {
inline constexpr const char* kCatchException = "catch_exception";
inline constexpr const char* kShutdown = "shutdown";
inline constexpr const char* kBlacklist = "blacklist";
inline constexpr const char* kElasticReinit = "elastic_reinit";
inline constexpr const char* kGlooReinit = "gloo_reinit";
inline constexpr const char* kRendezvousLocal = "rendezvous_local";
inline constexpr const char* kRendezvousGlobal = "rendezvous_global";
inline constexpr const char* kNcclReinit = "nccl_reinit";
inline constexpr const char* kStateSync = "state_sync";
inline constexpr const char* kRecompute = "recompute";
inline constexpr const char* kUlfmRepair = "ulfm_repair";       // revoke+agree+shrink
inline constexpr const char* kUlfmExpand = "ulfm_expand";       // connect/merge
inline constexpr const char* kRetryCollective = "retry_collective";
inline constexpr const char* kWorkerInit = "worker_init";       // cold/warm start
// Asynchronous admission phases (overlapped with degraded training).
inline constexpr const char* kExpandBegin = "expand_begin";     // open window
inline constexpr const char* kStateStage = "state_stage";       // joiner pulls snapshot
inline constexpr const char* kExpandSplice = "expand_splice";   // install merged comm
inline constexpr const char* kDeltaSync = "delta_sync";         // catch-up broadcast
}  // namespace phase

// Sum of the comm-reconstruction phases for one stack (used by the
// Fig. 5-7 cost split).
double ReconstructionCost(const std::map<std::string, double>& by_phase,
                          bool elastic_horovod);

}  // namespace rcc::horovod
