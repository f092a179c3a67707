#include "core/pipeline_trainer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "common/log.h"
#include "obs/metrics.h"

namespace rcc::core {
namespace {

// Checkpoint shards load at host-memory-read rates at restore time
// (costmodel Eq.1's loading term); the recompute term is paid naturally
// by re-running the rolled-back steps.
constexpr double kRestoreLoadBytesPerSecond = 1e9;

// The p2p activation/gradient descriptor: the microbatch id rides as an
// 8-byte token (the modeled wire size comes from set_cost_scale).
constexpr size_t kTokenBytes = sizeof(int64_t);

// Reduced physical stand-in for the declared-size TP/DP collectives.
constexpr size_t kProxyFloats = 16;
constexpr double kProxyBytes = kProxyFloats * sizeof(float);

// User-tag encoding for the stage-to-stage p2p messages. The host
// communicator is replaced (fresh ctx) at every repair, so stale
// messages of an abandoned attempt never alias; the attempt field
// disambiguates restore replays of the same gstep on the same comm.
int P2pTag(int64_t gstep, int attempt, bool bwd, int m, int p) {
  return static_cast<int>(
      ((((gstep % 512) * 4 + attempt % 4) * 2 + (bwd ? 1 : 0)) * 64 + m) * 64 +
      p);
}

}  // namespace

std::string FormatCommitLog(const std::vector<StepCommit>& log) {
  std::string out;
  char buf[64];
  for (const auto& c : log) {
    std::snprintf(buf, sizeof(buf), "g%lld gen%d slots",
                  static_cast<long long>(c.gstep), c.generation);
    out += buf;
    for (int pid : c.slot_pids) {
      std::snprintf(buf, sizeof(buf), " %d", pid);
      out += buf;
    }
    out += " owner";
    for (int d : c.owner) {
      std::snprintf(buf, sizeof(buf), " %d", d);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string FormatExecLog(const std::vector<ExecRecord>& log) {
  std::string out;
  char buf[64];
  for (const auto& e : log) {
    std::snprintf(buf, sizeof(buf), "g%lld p%d m%d\n",
                  static_cast<long long>(e.gstep), e.stage, e.mb);
    out += buf;
  }
  return out;
}

PipelineTrainer::PipelineTrainer(ResilientComm* rc, PipelineOptions opts)
    : rc_(rc),
      opts_(opts),
      // Nothing joins a pipeline run, and its policy inputs are composed
      // from SPMD-agreed state, so every member decides locally.
      boundary_(rc, /*state=*/nullptr, /*store=*/nullptr,
                opts_.policy_mode == policy::Mode::kLegacy
                    ? policy::Mode::kAdaptive
                    : opts_.policy_mode,
                StepBoundary::Inputs::kAgreed) {
  if (opts_.dims.pp < 1) opts_.dims.pp = 1;
  if (opts_.dims.tp < 1) opts_.dims.tp = 1;
  if (opts_.dims.dp < 1) {
    opts_.dims.dp =
        std::max(1, rc_->size() / (opts_.dims.pp * opts_.dims.tp));
  }
  RCC_CHECK(opts_.microbatches >= 1 && opts_.microbatches <= 64);
  RCC_CHECK(opts_.dims.pp <= 64);
}

int PipelineTrainer::RankOfPid(int pid) const {
  const auto& pids = rc_->pids();
  for (size_t i = 0; i < pids.size(); ++i) {
    if (pids[i] == pid) return static_cast<int>(i);
  }
  return -1;
}

double PipelineTrainer::StageFwdSeconds() const {
  return dnn::StageForwardFlops(opts_.spec, opts_.dims.pp, opts_.dims.tp,
                                opts_.microbatch_size) /
         rc_->endpoint().fabric().config().net.gpu_flops;
}

std::vector<std::vector<PipelineTrainer::Op>> PipelineTrainer::BuildSchedule(
    const ProcessGroupGrid& grid, int microbatches) {
  const int P = grid.dims().pp;
  const int D = grid.dims().dp;
  const int M = microbatches;
  std::vector<std::vector<Op>> out(static_cast<size_t>(D) * P);
  // Completion round of each op, -1 while unscheduled.
  std::vector<int> fwd_round(static_cast<size_t>(P) * M, -1);
  std::vector<int> bwd_round(static_cast<size_t>(P) * M, -1);
  auto idx = [P](int p, int m) { return static_cast<size_t>(m) * P + p; };
  int remaining = 0;
  for (int p = 0; p < P; ++p) {
    for (int m = 0; m < M; ++m) {
      if (grid.OwnerReplica(p, m) >= 0) remaining += 2;
    }
  }
  const int max_rounds = 4 * P * M + 8;
  for (int r = 1; remaining > 0 && r <= max_rounds; ++r) {
    for (int d = 0; d < D; ++d) {
      for (int p = 0; p < P; ++p) {
        if (!grid.Functional(d, p)) continue;
        // Prefer a ready backward (1F1B drains memory eagerly), lowest
        // microbatch first; else a ready forward.
        int pick = -1;
        bool pick_bwd = false;
        for (int m = 0; m < M && pick < 0; ++m) {
          if (grid.OwnerReplica(p, m) != d) continue;
          if (bwd_round[idx(p, m)] != -1) continue;
          const int dep = p == P - 1 ? fwd_round[idx(p, m)]
                                     : bwd_round[idx(p + 1, m)];
          if (dep != -1 && dep < r) {
            pick = m;
            pick_bwd = true;
          }
        }
        for (int m = 0; m < M && pick < 0; ++m) {
          if (grid.OwnerReplica(p, m) != d) continue;
          if (fwd_round[idx(p, m)] != -1) continue;
          const int dep = p == 0 ? 0 : fwd_round[idx(p - 1, m)];
          if (p == 0 || (dep != -1 && dep < r)) pick = m;
        }
        if (pick < 0) continue;
        (pick_bwd ? bwd_round : fwd_round)[idx(p, pick)] = r;
        out[static_cast<size_t>(d) * P + p].push_back(Op{pick_bwd, pick, p});
        --remaining;
      }
    }
  }
  RCC_CHECK(remaining == 0) << "1F1B schedule did not converge";
  return out;
}

bool PipelineTrainer::StateCoverage(const ProcessGroupGrid& trial) const {
  const std::vector<int>& alive = rc_->pids();
  const std::set<int> alive_set(alive.begin(), alive.end());
  for (int p = 0; p < opts_.dims.pp; ++p) {
    for (int t = 0; t < opts_.dims.tp; ++t) {
      std::set<int> old_members;
      bool old_survivor = false;
      for (int d = 0; d < opts_.dims.dp; ++d) {
        const int pid = grid_.PidAt(d, p, t);
        if (pid < 0) continue;
        old_members.insert(pid);
        if (alive_set.count(pid)) old_survivor = true;
      }
      for (int d = 0; d < opts_.dims.dp; ++d) {
        const int pid = trial.PidAt(d, p, t);
        if (pid >= 0 && old_members.count(pid) == 0 && !old_survivor) {
          return false;  // a newcomer with nobody to source the shard from
        }
      }
    }
  }
  return true;
}

policy::PolicyInputs PipelineTrainer::ComposeInputs(
    const ProcessGroupGrid& trial, int lost, int64_t gstep) const {
  // Every field must be a pure function of SPMD-agreed state (virtual
  // clocks diverge across ranks mid-failure, so `now` stays 0 and the
  // step estimate is the cost model, not a measurement).
  policy::PolicyInputs in;
  in.event = static_cast<int32_t>(policy::EventKind::kFailure);
  in.seq = boundary_.policy().next_seq();
  in.world = rc_->size();
  in.lost = lost;
  in.replacements = 0;
  in.slots_used = 0;
  in.flags = policy::kFlagRestoreOk;
  if (trial.Routable() && StateCoverage(trial)) {
    in.flags |= policy::kFlagReroutable;
  }
  in.replica_ranks = opts_.dims.pp * opts_.dims.tp;
  in.gstep = gstep;
  in.remaining_steps = opts_.steps - gstep;
  in.rollback_steps = std::max<int64_t>(0, gstep - 1 - ckpt_);
  in.now = 0.0;
  in.step_seconds =
      3.0 * StageFwdSeconds() * (opts_.microbatches + opts_.dims.pp - 1);
  in.mtbf_seconds = 0.0;
  in.failures_observed = rc_->repairs();
  in.snapshot_bytes = opts_.spec.size_mb * 1e6;
  in.staging_seconds = 0.0;
  in.rebuild_seconds = nccl::Comm::InitCost(
      rc_->endpoint().fabric().config(), rc_->size());
  in.grace_seconds = 0.0;
  return in;
}

Status PipelineTrainer::BuildSubComms(bool reshard) {
  const std::vector<int> world = rc_->pids();
  sim::Endpoint& ep = rc_->endpoint();
  const GridCoord c = grid_.CoordOf(ep.pid());
  const dnn::ModelSpec& spec = opts_.spec;
  const double act_bytes = dnn::StageActivationBytes(spec, opts_.dims.tp,
                                                     opts_.microbatch_size);
  const double shard_bytes =
      dnn::StageParamBytes(spec, opts_.dims.pp, opts_.dims.tp);

  std::vector<int> new_tp;
  std::vector<int> new_dp;
  if (c.d >= 0) {
    if (opts_.dims.tp > 1 && grid_.Functional(c.d, c.p)) {
      new_tp = grid_.TpGroupPids(c.d, c.p);
    }
    new_dp = grid_.DpGroupPids(c.p, c.t);
    if (new_dp.size() < 2) new_dp.clear();
  }

  // True when any member of `group` reported the sub-comm selected by
  // `bit` broken at the last health agreement — the SPMD stand-in for
  // this rank's own (rank-local) broken flag.
  auto disturbed = [this](const std::vector<int>& group, uint64_t bit) {
    for (int pid : group) {
      for (size_t i = 0; i < peer_flag_pids_.size(); ++i) {
        if (peer_flag_pids_[i] != pid) continue;
        if (i < peer_flags_.size() && (peer_flags_[i] & bit) != 0) {
          return true;
        }
        break;
      }
    }
    return false;
  };

  // TP shards of my stage replica. Every sub-communicator watches the
  // whole WORLD, not just its own members: a failure in another grid
  // group makes a peer abandon the step before entering this group's
  // collective, and only the wider watch unblocks the members already
  // inside it (see nccl::Comm::set_death_watch).
  if (new_tp != tp_pids_ || reshard || disturbed(new_tp, 1)) {
    tp_comm_.reset();
    tp_pids_ = new_tp;
    if (!new_tp.empty()) {
      char id[64];
      std::snprintf(id, sizeof(id), "pp/tp/d%d/p%d/g%d", c.d, c.p, gen_);
      tp_comm_ = nccl::Comm::InitRank(ep, new_tp, id,
                                      act_bytes / kProxyBytes, 1.0, &world);
      if (tp_comm_ == nullptr) {
        if (!ep.alive()) return Status(Code::kAborted, "killed in tp init");
        return Status::ProcFailed({}, "tp subcomm init failed");
      }
    }
  } else if (tp_comm_) {
    tp_comm_->set_death_watch(world);
  }

  // DP column (p, t) across the pipeline replicas.
  if (new_dp != dp_pids_ || reshard || disturbed(new_dp, 2)) {
    dp_comm_.reset();
    dp_pids_ = new_dp;
    if (!new_dp.empty()) {
      char id[64];
      std::snprintf(id, sizeof(id), "pp/dp/p%d/t%d/g%d", c.p, c.t, gen_);
      dp_comm_ = nccl::Comm::InitRank(ep, new_dp, id,
                                      shard_bytes / kProxyBytes, 1.0, &world);
      if (dp_comm_ == nullptr) {
        if (!ep.alive()) return Status(Code::kAborted, "killed in dp init");
        return Status::ProcFailed({}, "dp subcomm init failed");
      }
    }
  } else if (dp_comm_) {
    dp_comm_->set_death_watch(world);
  }

  // Shard-state movement. Reform (shrink/restore) re-broadcasts every
  // column's shard from rank 0; a re-route broadcasts only into columns
  // that adopted a newcomer, from the lowest surviving member of the
  // column's PREVIOUS membership. The re-route root is derived in
  // Recover() from the pre-failure grid snapshot (adopt_root_), so
  // survivors and adoptees — who cannot see each other's old comms —
  // agree on it by construction. The priced proxy buffer models the
  // full shard through the comm's cost scale.
  if (dp_comm_ != nullptr) {
    const int root = reshard ? 0 : adopt_root_;
    if (root >= 0) {
      float buf[kProxyFloats] = {0};
      Status s = dp_comm_->Broadcast(buf, kProxyFloats, root);
      if (!s.ok()) return s;
    }
  }
  adopt_root_ = -1;
  return Status::Ok();
}

Status PipelineTrainer::RunStepOps(int64_t gstep, int attempt) {
  sim::Endpoint& ep = rc_->endpoint();
  const GridCoord c = grid_.CoordOf(ep.pid());
  if (c.d < 0) return Status::Ok();                    // spare: idle
  if (!grid_.Functional(c.d, c.p)) return Status::Ok();  // broken replica
  const int P = opts_.dims.pp;
  const double act_bytes = dnn::StageActivationBytes(
      opts_.spec, opts_.dims.tp, opts_.microbatch_size);
  const double fwd_flops = dnn::StageForwardFlops(
      opts_.spec, P, opts_.dims.tp, opts_.microbatch_size);
  const auto sched = BuildSchedule(grid_, opts_.microbatches);
  const auto& ops = sched[static_cast<size_t>(c.d) * P + c.p];
  step_start_ = ep.now();
  step_busy_ = 0.0;
  mpi::Comm& host = rc_->host();

  auto send_token = [&](int dst_pid, int tag, int64_t token) -> Status {
    const int dst_rank = RankOfPid(dst_pid);
    if (dst_rank < 0) return Status::ProcFailed({}, "peer left the world");
    host.set_cost_scale(act_bytes / kTokenBytes);
    Status s = host.Send(dst_rank, tag, &token, kTokenBytes);
    host.set_cost_scale(1.0);
    return s;
  };
  auto recv_token = [&](int src_pid, int tag, int64_t want) -> Status {
    const int src_rank = RankOfPid(src_pid);
    if (src_rank < 0) return Status::ProcFailed({}, "peer left the world");
    int64_t token = -1;
    RCC_RETURN_IF_ERROR(
        host.Recv(src_rank, tag, &token, kTokenBytes, /*watch_members=*/true));
    if (token != want) {
      return Status(Code::kInternal, "pipeline token mismatch");
    }
    return Status::Ok();
  };
  auto tp_allreduce = [&]() -> Status {
    if (!tp_comm_) return Status::Ok();
    float in[kProxyFloats] = {0};
    float out[kProxyFloats];
    return tp_comm_->Allreduce(in, out, kProxyFloats);
  };

  for (const Op& op : ops) {
    if (!op.bwd) {
      if (op.p > 0) {
        const int src =
            grid_.PidAt(grid_.OwnerReplica(op.p - 1, op.m), op.p - 1, c.t);
        RCC_RETURN_IF_ERROR(recv_token(
            src, P2pTag(gstep, attempt, false, op.m, op.p), op.m));
      }
      ep.Compute(fwd_flops);
      if (!ep.alive()) return Status(Code::kAborted, "killed in forward");
      step_busy_ += fwd_flops / ep.fabric().config().net.gpu_flops;
      RCC_RETURN_IF_ERROR(tp_allreduce());
      if (op.p < P - 1) {
        const int dst =
            grid_.PidAt(grid_.OwnerReplica(op.p + 1, op.m), op.p + 1, c.t);
        RCC_RETURN_IF_ERROR(send_token(
            dst, P2pTag(gstep, attempt, false, op.m, op.p + 1), op.m));
      }
    } else {
      if (op.p < P - 1) {
        const int src =
            grid_.PidAt(grid_.OwnerReplica(op.p + 1, op.m), op.p + 1, c.t);
        RCC_RETURN_IF_ERROR(recv_token(
            src, P2pTag(gstep, attempt, true, op.m, op.p), op.m));
      }
      ep.Compute(2.0 * fwd_flops);
      if (!ep.alive()) return Status(Code::kAborted, "killed in backward");
      step_busy_ += 2.0 * fwd_flops / ep.fabric().config().net.gpu_flops;
      RCC_RETURN_IF_ERROR(tp_allreduce());
      if (op.p > 0) {
        const int dst =
            grid_.PidAt(grid_.OwnerReplica(op.p - 1, op.m), op.p - 1, c.t);
        RCC_RETURN_IF_ERROR(send_token(
            dst, P2pTag(gstep, attempt, true, op.m, op.p - 1), op.m));
      }
      pending_.push_back(ExecRecord{gstep, op.p, op.m});
    }
  }
  return Status::Ok();
}

Status PipelineTrainer::ColumnAllreduce() {
  if (!dp_comm_) return Status::Ok();
  float in[kProxyFloats] = {0};
  float out[kProxyFloats];
  return dp_comm_->Allreduce(in, out, kProxyFloats);
}

PipelineTrainer::StageMetrics::StageMetrics(int stage, obs::Registry& reg)
    : busy(reg, "rcc_pp_stage_busy_seconds_total",
           {{"stage", std::to_string(stage)}}),
      bubble(reg, "rcc_pp_stage_bubble_seconds_total",
             {{"stage", std::to_string(stage)}}) {}

void PipelineTrainer::Commit(int64_t gstep) {
  StepCommit sc;
  sc.gstep = gstep;
  sc.generation = gen_;
  sc.slot_pids = grid_.slot_pids();
  sc.owner.reserve(static_cast<size_t>(opts_.dims.pp) * opts_.microbatches);
  for (int p = 0; p < opts_.dims.pp; ++p) {
    for (int m = 0; m < opts_.microbatches; ++m) {
      sc.owner.push_back(grid_.OwnerReplica(p, m));
    }
  }
  report_.commits.push_back(std::move(sc));
  report_.commit_times.push_back(rc_->endpoint().now());
  ++report_.steps_run;

  const GridCoord c = grid_.CoordOf(rc_->endpoint().pid());
  int64_t adopted = 0;
  for (const auto& e : pending_) {
    if (c.d >= 0 && e.mb % opts_.dims.dp != c.d) ++adopted;
    report_.execs.push_back(e);
  }
  report_.adopted_microbatches += adopted;
  if (!pending_.empty()) {
    microbatches_->Add(static_cast<double>(pending_.size()));
    if (adopted > 0) adopted_->Add(static_cast<double>(adopted));
  }
  pending_.clear();
  if (c.d >= 0 && grid_.Functional(c.d, c.p)) {
    const double span = rc_->endpoint().now() - step_start_;
    StageMetrics& stage = stage_metrics_.try_emplace(c.p, c.p, metrics_).first->second;
    stage.busy->Add(step_busy_);
    stage.bubble->Add(std::max(0.0, span - step_busy_));
    step_seconds_->Observe(span);
  }
  if ((gstep + 1) % opts_.checkpoint_interval == 0) ckpt_ = gstep;
}

bool PipelineTrainer::Adapt(int64_t* gstep) {
  pending_.clear();
  // Agree on sub-comm health before deciding what to rebuild: a world
  // death wedges an in-flight collective only at the members still
  // inside it, so `broken()` is rank-local and using it directly would
  // rebuild a group on some members but not others (a permanent init-
  // barrier deadlock). The allgather also absorbs any further deaths
  // since the commit agreement.
  // A group counts as unhealthy here when its comm is broken OR when
  // this rank recorded the membership but holds no comm at all (its
  // init failed or was never reached) — peers that DID build the group
  // would otherwise skip the rebuild and strand this rank.
  uint64_t health = 0;
  if (!tp_pids_.empty() && (tp_comm_ == nullptr || tp_comm_->broken())) {
    health |= 1;
  }
  if (!dp_pids_.empty() && (dp_comm_ == nullptr || dp_comm_->broken())) {
    health |= 2;
  }
  std::vector<uint64_t> words;
  if (!rc_->AllgatherU64(health, &words).ok()) {
    report_.aborted = true;
    return false;
  }
  peer_flag_pids_ = rc_->pids();
  peer_flags_ = words;
  ++gen_;
  report_.repairs = rc_->repairs();
  const int lost = std::max(0, world_ - rc_->size());
  world_ = rc_->size();

  ProcessGroupGrid trial = grid_;
  trial.Update(rc_->pids());
  policy::Decision d;
  (void)boundary_.Decide([&] { return ComposeInputs(trial, lost, *gstep); },
                         /*agreed=*/nullptr, &d);
  report_.decisions.push_back(d);

  adopt_root_ = -1;

  const int world = rc_->size();
  const int pp = opts_.dims.pp;
  const int tp = opts_.dims.tp;
  auto reform = [&]() -> bool {
    const int dp = world / (pp * tp);
    if (dp < 1) {
      // Fewer survivors than one pipeline replica: the job cannot
      // continue in this layout (the chaos generator's liveness floor
      // prevents this; direct drivers see a clean abort).
      report_.aborted = true;
      return false;
    }
    opts_.dims.dp = dp;
    grid_ = ProcessGroupGrid(GridDims{dp, pp, tp}, rc_->pids());
    return true;
  };

  switch (d.chosen) {
    case policy::Strategy::kReroute: {
      // Surviving slots keep streaming. Every member of a column that
      // adopted a newcomer must agree on the shard broadcast and its
      // root before grid_ is overwritten: derive both from the
      // pre-failure snapshot (grid_) + the trial mapping + the agreed
      // survivor list — identical inputs on every column member.
      const GridCoord me = trial.CoordOf(rc_->endpoint().pid());
      if (me.d >= 0) {
        const std::set<int> alive(rc_->pids().begin(), rc_->pids().end());
        std::set<int> old_members;
        int root_pid = -1;
        for (int dd = 0; dd < opts_.dims.dp; ++dd) {
          const int pid = grid_.PidAt(dd, me.p, me.t);
          if (pid < 0) continue;
          old_members.insert(pid);
          if (alive.count(pid) && (root_pid < 0 || pid < root_pid)) {
            root_pid = pid;
          }
        }
        const std::vector<int> col = trial.DpGroupPids(me.p, me.t);
        bool newcomer = false;
        for (int pid : col) {
          if (old_members.count(pid) == 0) newcomer = true;
        }
        if (newcomer && root_pid >= 0 && col.size() >= 2) {
          for (size_t i = 0; i < col.size(); ++i) {
            if (col[i] == root_pid) adopt_root_ = static_cast<int>(i);
          }
        }
      }
      grid_ = trial;
      ++report_.reroutes;
      reroutes_->Increment();
      break;
    }
    case policy::Strategy::kRestore: {
      if (!reform()) return false;
      const int64_t rollback = std::max<int64_t>(0, *gstep - 1 - ckpt_);
      report_.rollback_steps += static_cast<int>(rollback);
      while (!report_.commits.empty() &&
             report_.commits.back().gstep > ckpt_) {
        report_.commits.pop_back();
      }
      report_.execs.erase(
          std::remove_if(report_.execs.begin(), report_.execs.end(),
                         [this](const ExecRecord& e) {
                           return e.gstep > ckpt_;
                         }),
          report_.execs.end());
      *gstep = ckpt_ + 1;
      if (grid_.HasSlot(rc_->endpoint().pid())) {
        rc_->endpoint().Busy(dnn::StageParamBytes(opts_.spec, pp, tp) /
                             kRestoreLoadBytesPerSecond);
      }
      ++report_.restores;
      break;
    }
    case policy::Strategy::kShrink:
    default: {
      if (!reform()) return false;
      ++report_.reforms;
      break;
    }
  }

  Status bs = BuildSubComms(d.chosen != policy::Strategy::kReroute);
  if (!bs.ok()) {
    if (bs.code() == Code::kAborted) {
      report_.aborted = true;
      return false;
    }
    // A rebuild can only fail through a (further) death. Do NOT repair
    // here: mark the sub-comms unusable and fall through to the next
    // commit agreement, whose internal repair is the single recovery
    // entry point every member reaches (peers blocked in watched p2p
    // are woken by the death watch / revocation).
    subcomms_ok_ = false;
    return true;
  }
  subcomms_ok_ = true;
  return true;
}

PipelineReport PipelineTrainer::Run() {
  world_ = rc_->size();
  grid_ = ProcessGroupGrid(opts_.dims, rc_->pids());
  int64_t gstep = 0;
  int attempt = 0;
  Status s = BuildSubComms(/*reshard=*/false);
  if (!s.ok()) {
    if (s.code() == Code::kAborted) {
      report_.aborted = true;
      report_.final_world = rc_->size();
      return report_;
    }
    // A founding-time death: vote "fail" at the first commit agreement
    // and let its internal repair converge the world.
    subcomms_ok_ = false;
  }
  constexpr uint64_t kWordOk = std::numeric_limits<uint64_t>::max();
  while (gstep < opts_.steps) {
    pending_.clear();
    Status step = subcomms_ok_
                      ? RunStepOps(gstep, attempt)
                      : Status::ProcFailed({}, "subcomm rebuild failed");
    if (step.ok() && subcomms_ok_) step = ColumnAllreduce();
    if (step.code() == Code::kAborted) {
      report_.aborted = true;
      break;
    }
    // Commit agreement: everyone (spares included) contributes a word
    // through the RESILIENT allgather — its internal repair is the
    // only place the world ever shrinks, so every member consumes the
    // identical op/agreement sequence on the host comm regardless of
    // where its step attempt failed. The word is kWordOk on success,
    // else the first known dead pid (kWordOk - 1 when none is known).
    uint64_t word = kWordOk;
    if (!step.ok()) {
      word = step.failed_pids().empty()
                 ? kWordOk - 1
                 : static_cast<uint64_t>(step.failed_pids().front());
    }
    const int repairs_before = rc_->repairs();
    std::vector<uint64_t> words;
    Status ag = rc_->AllgatherU64(word, &words);
    if (!ag.ok()) {
      report_.aborted = true;
      break;
    }
    // `repaired` is SPMD-agreed: Repair is collective, so the counter
    // advances identically on every survivor between two agreements.
    const bool repaired = rc_->repairs() != repairs_before;
    bool all_ok = !repaired;
    for (uint64_t w : words) {
      if (w != kWordOk) all_ok = false;
    }
    if (all_ok) {
      Commit(gstep);
      ++gstep;
      attempt = 0;
      continue;
    }
    // Failed step (or a membership change mid-step, conservatively
    // treated as one: pending_ executions were not promoted, so the
    // re-run keeps the ledger exactly-once). Adapt and retry.
    ++attempt;
    if (!Adapt(&gstep)) break;
  }
  report_.final_world = rc_->size();
  report_.repairs = rc_->repairs();
  return report_;
}

}  // namespace rcc::core
