// Resilient collective operations: the paper's primary contribution.
//
// A ResilientComm pairs the ULFM host communicator with the NCCL-like
// GPU communicator and implements forward recovery at single-collective
// granularity (paper Section 3.2): when a collective reports a peer
// failure, the survivors
//
//   revoke the communicator -> acknowledge/agree on the failed set ->
//   shrink (optionally dropping whole nodes, the runtime flag of
//   Section 3.1) -> rebuild the GPU communicator -> RE-EXECUTE ONLY THE
//   FAILED COLLECTIVE with the preserved inputs
//
// so the mini-batch in progress is never rolled back.
//
// Resilient-op protocol. A failure can catch the SPMD ranks straddling
// two consecutive collectives (one rank may finish allreduce N and move
// on while another is still inside it), and — with the nonblocking
// pipeline — with a whole *window* of collectives in flight. Every
// resilient operation therefore carries a monotonically increasing op id
// and is an entry of a submission window, which closes with a
// synchronizing phase (a dissemination barrier, whose completion at any
// rank implies every rank entered it). A blocking op is a window of one:
// Allreduce is IAllreduce then WaitAll, and BcastBlob / AllgatherU64
// each post one host entry whose data phase runs inline and whose window
// closes on the host barrier. Every GPU entry completes through the GPU
// communicator's Wait. After a repair the survivors run ONE agreement:
// each contributes the earliest op id whose data it still needs (its
// first incomplete window entry, else the none sentinel), MIN-reduced.
// The uniform decision rule is "re-execute every op >= MIN in program
// order on the shrunk communicator, with the preserved out-of-place
// inputs", then close the window again; MIN == sentinel (or beyond
// everything a rank submitted) means the repair itself synchronized the
// survivors and nothing is replayed. One loop (RecoverWindow) applies
// the rule to every op, so ranks straddling a blocking and a windowed op
// pair their repairs and agreements by construction. This generalizes
// the standard ULFM recovery pattern for synchronous collectives to a
// bounded in-flight window (see DESIGN.md §5.6/§5.10).
//
// Replacement and upscaling workers are admitted with Expand /
// JoinExisting at epoch boundaries, while the survivors keep training in
// degraded mode.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/request.h"
#include "common/function_ref.h"
#include "horovod/plan.h"
#include "kvstore/kvstore.h"
#include "mpi/comm.h"
#include "nccl/nccl.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "trace/trace.h"
#include "ulfm/ulfm.h"

namespace rcc::core {

// Delta-sync fraction per survivor step the joiner is behind at splice
// (RCC_EXPAND_DELTA_FRAC, default 0.05): the catch-up broadcast is
// priced at min(1, frac * steps_behind) of the full state.
double ExpandDeltaFrac();

class ResilientComm {
 public:
  // Founds the initial world over `pids` (collective; identical list on
  // every founding rank). Initial setup is traced under "init/".
  ResilientComm(sim::Endpoint& ep, const std::vector<int>& pids,
                horovod::DropPolicy policy, trace::Recorder* rec);

  // Joins an existing world (collective with the survivors' Expand call
  // using the same session & count). The joiner's connect cost is traced
  // under "recovery/".
  static std::unique_ptr<ResilientComm> JoinExisting(
      sim::Endpoint& ep, const std::string& session, int expected_joiners,
      horovod::DropPolicy policy, trace::Recorder* rec);

  int rank() const { return comm_->rank(); }
  int size() const { return static_cast<int>(comm_->pids().size()); }
  const std::vector<int>& pids() const { return comm_->pids(); }
  mpi::Comm& host() { return *comm_; }
  sim::Endpoint& endpoint() { return ep_; }
  trace::Recorder* recorder() const { return rec_; }
  int repairs() const { return repairs_; }

  // Resilient allreduce (sum) over the GPU communicator: IAllreduce, then
  // WaitAll. Re-executes on the shrunk communicator after failures;
  // `sendbuf` is preserved across retries (out-of-place kernels).
  // `cost_scale` maps physical to declared bytes. Returns kAborted if
  // this rank itself dies or leaves (node-drop policy).
  Status Allreduce(const float* sendbuf, float* recvbuf, size_t count,
                   double cost_scale = 1.0);

  // --- nonblocking pipeline ---
  // Submits a resilient allreduce into the bounded in-flight window
  // (blocking on the oldest outstanding op once the window is full).
  // Both buffers must stay alive and untouched until WaitAll returns:
  // sendbuf doubles as the preserved replay input. Returns kAborted if
  // this rank dies; other failures are repaired internally.
  Status IAllreduce(const float* sendbuf, float* recvbuf, size_t count,
                    double cost_scale = 1.0);
  // Drains the window and closes it with a synchronizing GPU barrier,
  // running the windowed recovery protocol on failures. The window is
  // empty afterwards regardless of outcome.
  Status WaitAll();
  // Bounds the number of in-flight ops (compute run-ahead depth). A
  // bounded window samples its depth into the "in_flight_window" series;
  // a comm used only for blocking ops (windows of one) does not.
  void set_max_inflight(int n) {
    max_inflight_ = n < 1 ? 1 : n;
    sample_depth_ = true;
  }

  // Resilient host-side blob broadcast from rank 0 (state sync, policy
  // inputs), a window of one host entry. Rank 0 of each attempt fills
  // *blob with `produce()` unless it already holds the blob: a surviving
  // original root, or a receiver promoted to rank 0 after an attempt
  // completed on it, resends what it holds. A receiver promoted before
  // the blob reached it produces its own, so the root dying inside the
  // broadcast never hands the survivors an empty blob. Every other rank
  // leaves `produce` uncalled.
  Status BcastBlob(std::vector<uint8_t>* blob,
                   const std::function<std::vector<uint8_t>()>& produce,
                   double cost_scale);

  // Resilient small allgather over the host communicator (Horovod
  // response negotiation, catch-up positions), a window of one host
  // entry.
  Status AllgatherU64(uint64_t mine, std::vector<uint64_t>* all);

  // Epoch-boundary reconfiguration: admits `joiner_count` new workers
  // (collective across current members; joiners call JoinExisting with
  // the same session). Rebuilds the GPU communicator. Returns kTimeout
  // when a provisioned joiner never arrives within the announce grace +
  // expand timeout: the expand is abandoned and the caller keeps
  // training on the unchanged communicator (degraded mode).
  Status Expand(const std::string& session, int joiner_count);

  // --- asynchronous admission (overlapped rendezvous + state staging) ---
  // The blocking Expand stalls every survivor for the joiner's full
  // bring-up; the async protocol (ExpandAsyncBegin, one ExpandPoll per
  // step, JoinAsync on the joiner) lets the survivors keep training while
  // the joiner stages. Drivers reach both through core::StepBoundary;
  // DESIGN.md §5 has the admission state machine.

  enum class PollResult { kNone, kPending, kSpliced, kAborted };

  // Opens an async expand. Rank 0 publishes `snapshot` (declared size
  // `declared_bytes` for the cost model) under "expand/<session>/" in
  // `store`, then every caller opens the rendezvous window. A still-
  // pending previous expand is finalized first. The window closes after
  // ulfm::ExpandTimeout(). Collective across current members; returns
  // kAborted only if this rank dies.
  Status ExpandAsyncBegin(kv::Store* store, const std::string& session,
                          int joiner_count,
                          const std::vector<uint8_t>& snapshot,
                          double declared_bytes);

  // One admission poll (call between training steps). kPending: keep
  // training. kSpliced: the merged communicator is installed and the
  // GPU communicator rebuilt (scale-0 bootstrap when every joiner
  // pre-established during staging); the caller should run its delta
  // state sync. kAborted: the expand timed out or was abandoned; the
  // membership is unchanged and training continues degraded. kNone: no
  // expand is pending. `finalize` forces a decision (splice with
  // whoever staged, else abort) — trainers pass it after the last step
  // so parked joiners always unblock.
  PollResult ExpandPoll(bool finalize = false);

  // True while an async expand is awaiting splice or abort.
  bool expand_pending() const { return expand_op_.active; }

  // Joiner-side async admission. Announces into `session`, pulls the
  // staged snapshot from `store` in the background (charging the
  // declared transfer cost), hands the raw bytes to `restore_fn`
  // (driver-specific restore + materialization), pre-establishes the
  // GPU transports for the candidate merged membership, then parks in
  // AwaitSplice. Returns the joined comm, or null if this joiner died,
  // was excluded by the admission deadline, or every survivor died.
  static std::unique_ptr<ResilientComm> JoinAsync(
      sim::Endpoint& ep, kv::Store* store, const std::string& session,
      horovod::DropPolicy policy, trace::Recorder* rec,
      const std::function<Status(const std::vector<uint8_t>&)>& restore_fn);

  // Drains the accumulated GPU-collective service seconds since the last
  // call: the GPU communicator's accumulator (every GPU entry completes
  // through its Wait; replays and barriers count too), plus what the
  // communicators a repair or a membership change replaced had
  // accumulated. Per-step reads of this drive the comm-hidden
  // fraction without picking up host-side traffic (state sync,
  // negotiation) that shares the global metrics registry.
  double TakeCommServiceSeconds();

  // Observer invoked once per replayed op (after its successful
  // re-execution on the repaired communicator), with the op's id and
  // the agreed replay MIN. The serving driver uses this to count decode
  // steps re-executed by recovery and to audit exactly-once token
  // commits; runs on the rank's own task, so no synchronization needed.
  void SetReplayHook(std::function<void(int64_t op_id, int64_t min_id)> fn) {
    replay_hook_ = std::move(fn);
  }

  // Test-only planted fault: allreduce entries (blocking or windowed)
  // matching the predicate are skipped during replay (marked done
  // without applying the result), leaving the skipping rank with a stale
  // result. The chaos harness uses this to prove its oracle + shrinker
  // pipeline catches a real replay bug end to end. Set before spawning
  // ranks, clear (nullptr) after the run; reads are unsynchronized.
  static void TestOnlySetReplaySkip(
      std::function<bool(int pid, int64_t op_id)> fn);

 private:
  // One window entry. A GPU allreduce entry holds its request handle and
  // the preserved out-of-place buffers the recovery replays from; a host
  // entry holds its data phase, which runs inline and again on replay.
  // deque keeps references stable across submissions.
  struct WindowOp {
    int64_t id = 0;
    const float* sendbuf = nullptr;
    float* recvbuf = nullptr;
    size_t count = 0;
    double cost_scale = 1.0;
    coll::Request req;
    // The data phase; points into the RunHostOp call that posted it.
    const common::FunctionRef<Status()>* host = nullptr;
    bool done = false;
  };

  ResilientComm(sim::Endpoint& ep, mpi::Comm comm,
                horovod::DropPolicy policy, trace::Recorder* rec);

  // `init_cost_scale` is forwarded to nccl::Comm::InitRank (0 when the
  // merged transports were pre-established during async staging).
  Status InitGpu(const char* phase_prefix, double init_cost_scale = 1.0);
  bool ShouldLeaveNode() const;  // node-drop policy: a node-mate failed

  // --- the resilient-op window ---
  // Appends an entry with the next op id and records its post (element
  // count and declared bytes as far as the poster knows them).
  WindowOp& Post(int64_t count, double bytes);
  // Completes one GPU entry through the GPU communicator's Wait; marks
  // it done and records the op trace event on success. An entry with no
  // active request reports the deferred init failure, else kInternal.
  Status WaitOp(WindowOp* op);
  // Joins every outstanding GPU entry; returns the first failure
  // (kAborted short-circuits).
  Status DrainRequests();
  // Closes the window after `st` (the inline data phase's status, or
  // Ok): drain, closing sync, and RecoverWindow on failure until the
  // survivors agree. The window is empty afterwards regardless.
  Status CloseFrom(Status st);
  // The window's synchronizing phase: the host barrier for a host entry
  // (alone in its window), else the GPU barrier.
  Status ClosingSync();
  // A blocking host op: closes any open window, posts one host entry,
  // runs `data` inline and closes the entry's window, which drops the
  // entry: `data` is needed only for this call.
  Status RunHostOp(common::FunctionRef<Status()> data, int64_t count,
                   double bytes);
  // Earliest window entry whose data this rank still needs, else the
  // kNoIncompleteOp sentinel.
  int64_t FirstIncompleteWindowOp() const;
  // Blocking re-execution of every window entry with id >= min_id, in
  // program order, on the repaired communicator (traced as
  // recovery/retry_collective). Locally-complete entries are re-executed
  // too so the survivors' op streams stay aligned.
  Status ReplayWindowFrom(int64_t min_id);
  // The one recovery loop: drain, retire the failed requests, repair +
  // single agreement + replay. Sets *need_sync to false when the
  // agreement shows no survivor needs a replay at or before this rank's
  // last submitted op: the repair itself synchronized the survivors and
  // the window's closing sync must NOT be re-run (ranks past it will not
  // participate).
  Status RecoverWindow(Status failure, bool* need_sync);
  // Repairs the communicator after `failure` (revoke + agree + shrink +
  // GPU rebuild).
  Status Repair(const Status& failure);
  // The post-repair agreement on `contribution` (traced as
  // recovery/agree, this repair's agree phase when it succeeds).
  Result<ulfm::AgreeOutcome> Agree(int64_t contribution);
  int inflight() const;  // window entries not yet complete
  // Samples the in-flight window depth (the "in_flight_window" series)
  // of a bounded window.
  void RecordWindowDepth();

  static std::function<bool(int pid, int64_t op_id)> test_replay_skip_;

  sim::Endpoint& ep_;
  std::unique_ptr<mpi::Comm> comm_;
  std::unique_ptr<nccl::Comm> gpu_;
  horovod::DropPolicy policy_;
  trace::Recorder* rec_;
  obs::flight::Ring* flight_;  // this rank's event log
  Status gpu_init_status_;
  int repairs_ = 0;
  uint64_t op_counter_ = 0;
  int max_inflight_ = 8;
  bool sample_depth_ = false;  // see set_max_inflight
  std::function<void(int64_t, int64_t)> replay_hook_;
  std::deque<WindowOp> window_;
  double retired_service_ = 0.0;  // see TakeCommServiceSeconds
  // Instruments of the per-op re-execution path, resolved once.
  obs::SpanPhase retry_phase_{
      ep_.metrics(),
      std::string("recovery/") + horovod::phase::kRetryCollective};
  obs::SpanPhase agree_phase_{ep_.metrics(), "recovery/agree"};
  const uint32_t window_depth_name_ = obs::flight::Intern("in_flight_window");
  obs::ByAlgo<obs::flight::Name> algo_names_;
  obs::CounterHandle replayed_ops_{ep_.metrics(),
                                   "rcc_recovery_replayed_ops_total"};

  // --- async-admission state (one pending expand at a time) ---
  ulfm::ExpandOp expand_op_;
  kv::Store* expand_store_ = nullptr;
  std::string expand_session_;
  sim::Seconds expand_begin_time_ = 0.0;  // admission-latency metric base
};

}  // namespace rcc::core
