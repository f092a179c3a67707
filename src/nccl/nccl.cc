#include "nccl/nccl.h"

#include <map>

#include "common/log.h"

namespace rcc::nccl {

Comm::Comm(sim::Endpoint* ep, std::shared_ptr<mpi::CommGroup> group,
           double cost_scale)
    : ep_(ep), group_(std::move(group)), cost_scale_(cost_scale) {
  rank_ = group_->RankOfPid(ep_->pid());
  RCC_CHECK(rank_ >= 0) << "nccl comm: pid not in membership";
}

sim::Seconds Comm::InitCost(const sim::SimConfig& cfg, int nranks) {
  return cfg.costs.nccl_init_base + cfg.costs.nccl_init_per_rank * nranks;
}

std::unique_ptr<Comm> Comm::InitRank(sim::Endpoint& ep,
                                     const std::vector<int>& pids,
                                     const std::string& unique_id,
                                     double cost_scale,
                                     double init_cost_scale,
                                     const std::vector<int>* death_watch) {
  ep.Busy(InitCost(ep.fabric().config(), static_cast<int>(pids.size())) *
          init_cost_scale);
  auto group = mpi::GetOrCreateGroup(ep.fabric(), "nccl/" + unique_id, pids);
  auto comm =
      std::unique_ptr<Comm>(new Comm(&ep, group, cost_scale));
  if (death_watch != nullptr) comm->set_death_watch(*death_watch);
  // Bootstrap synchronisation: the init is collective; a dissemination
  // barrier aligns the participants' clocks (and surfaces peers that died
  // mid-init as an init failure, matching ncclCommInitRank).
  comm->BeginOp().ok();
  Status s = coll::DisseminationBarrier(*comm);
  if (!comm->FinishOp(s).ok()) return nullptr;
  return comm;
}

void Comm::NodeGroups(std::vector<std::vector<int>>* by_node,
                      std::vector<int>* local_group) const {
  by_node->clear();
  local_group->clear();
  const int my_node = ep_->fabric().NodeOf(ep_->pid());
  std::map<int, size_t> index_of_node;  // node id -> by_node slot
  for (int rank = 0; rank < size(); ++rank) {
    const int node = ep_->fabric().NodeOf(group_->pids[rank]);
    auto [it, fresh] = index_of_node.emplace(node, by_node->size());
    if (fresh) by_node->emplace_back();
    (*by_node)[it->second].push_back(rank);
    if (node == my_node) local_group->push_back(rank);
  }
}

void Comm::SyncStream() {
  if (!engine_tail_.active()) return;
  engine_tail_.Join();
  ep_->AdvanceTo(engine_tail_.complete_time());
}

Status Comm::Wait(coll::Request* req) {
  if (req == nullptr || !req->active()) {
    return Status(Code::kInvalid, "wait on empty request");
  }
  Status s = req->Join();
  ep_->AdvanceTo(req->complete_time());
  if (s.ok()) {
    service_acc_ += req->complete_time() - req->start_time();
    stack_metrics_.For(req->info().algo, "nccl", ep_->metrics())
        ->Record(req->complete_time() - req->submit_time(),
                 req->info().bytes);
  }
  if (!s.ok()) broken_ = true;
  return s;
}

bool Comm::Test(const coll::Request* req) const {
  return req != nullptr && req->Test();
}

Status Comm::WaitAll(std::vector<coll::Request>* reqs) {
  Status first;
  for (auto& req : *reqs) {
    if (!req.active()) continue;
    Status s = Wait(&req);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status Comm::BeginOp() {
  SyncStream();
  if (broken_) return Status(Code::kIoError, "nccl communicator aborted");
  ++op_seq_;
  current_phase_ = 1 + (op_seq_ % 65534);
  inline_op_start_ = ep_->now();
  RCC_LOG(kTrace) << "nccl pid " << ep_->pid() << " ctx "
                  << group_->ctx_id << " begin op " << op_seq_;
  return Status::Ok();
}

Status Comm::FinishOp(Status s) {
  current_phase_ = 0;
  // Inline ops (allgather, barrier, hierarchical allreduce) run on the
  // rank clock itself; their wall time is pure service time.
  if (s.ok()) service_acc_ += ep_->now() - inline_op_start_;
  if (!s.ok()) broken_ = true;
  RCC_LOG(kTrace) << "nccl pid " << ep_->pid() << " ctx "
                  << group_->ctx_id << " end op " << op_seq_ << " "
                  << s.ToString();
  return s;
}

Status Comm::SendTo(int dst_rank, int tag, const void* data, size_t bytes) {
  return ep_->Send(group_->pids[dst_rank],
                   sim::ChannelKey(group_->ctx_id, current_phase_), tag, data,
                   bytes, static_cast<double>(bytes) * cost_scale_);
}

Status Comm::RecvInto(int src_rank, int tag, sim::RecvBuffer* into) {
  RCC_LOG(kTrace) << "nccl pid " << ep_->pid() << " ctx " << group_->ctx_id
                  << " op " << op_seq_ << " recv from rank " << src_rank
                  << " tag " << tag << " bytes " << into->bytes;
  // Async error handling: any member death is communicator-fatal.
  return ep_->Recv(group_->pids[src_rank],
                   sim::ChannelKey(group_->ctx_id, current_phase_), tag, into,
                   /*cancel=*/nullptr,
                   watch_ext_ ? watch_ext_.get() : &group_->pids);
}

}  // namespace rcc::nccl
