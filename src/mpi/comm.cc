#include "mpi/comm.h"

#include "common/log.h"

namespace rcc::mpi {

Comm::Comm(sim::Endpoint* ep, std::shared_ptr<CommGroup> group)
    : ep_(ep), group_(std::move(group)) {
  rank_ = group_->RankOfPid(ep_->pid());
  RCC_CHECK(rank_ >= 0) << "endpoint pid " << ep_->pid()
                        << " is not a member of the communicator";
}

Comm Comm::World(sim::Endpoint& ep, const std::vector<int>& pids) {
  auto group = GetOrCreateGroup(ep.fabric(), GroupKey(0, "world", pids), pids);
  return Comm(&ep, group);
}

void Comm::NoteFailedPids(const std::vector<int>& pids) {
  observed_failed_.insert(pids.begin(), pids.end());
}

Status Comm::BeginCollective() {
  if (revoked()) return Status(Code::kRevoked, "communicator revoked");
  ++coll_seq_;
  current_phase_ = 1 + (coll_seq_ % 65534);
  return Status::Ok();
}

Status Comm::FinishCollective(Status s) {
  current_phase_ = 0;
  if (s.code() == Code::kProcFailed) NoteFailedPids(s.failed_pids());
  return s;
}

Status Comm::Wait(coll::Request* req) {
  if (req == nullptr || !req->active()) {
    return Status(Code::kInvalid, "wait on empty request");
  }
  Status s = req->Join();
  ep_->AdvanceTo(req->complete_time());
  if (s.ok()) {
    stack_metrics_.For(req->info().algo, "mpi", ep_->metrics())
        ->Record(req->complete_time() - req->submit_time(),
                 req->info().bytes);
  }
  if (s.code() == Code::kProcFailed) NoteFailedPids(s.failed_pids());
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

Status Comm::RawSend(int dst_rank, uint64_t channel, int tag,
                     const void* data, size_t bytes) {
  if (revoked()) return Status(Code::kRevoked, "communicator revoked");
  if (dst_rank < 0 || dst_rank >= size()) {
    return Status(Code::kInvalid, "send to out-of-range rank");
  }
  return ep_->Send(group_->pids[dst_rank], channel, tag, data, bytes,
                   static_cast<double>(bytes) * cost_scale_);
}

Status Comm::RawRecv(int src_rank, uint64_t channel, int tag,
                     sim::RecvBuffer* into, bool watch_members) {
  if (revoked()) return Status(Code::kRevoked, "communicator revoked");
  if (src_rank < 0 || src_rank >= size()) {
    return Status(Code::kInvalid, "recv from out-of-range rank");
  }
  Status s = ep_->Recv(group_->pids[src_rank], channel, tag, into,
                       &group_->revoke,
                       watch_members ? &group_->pids : nullptr);
  if (s.code() == Code::kProcFailed) NoteFailedPids(s.failed_pids());
  return s;
}

Status Comm::Send(int dst_rank, int tag, const void* data, size_t bytes) {
  return RawSend(dst_rank, sim::ChannelKey(group_->ctx_id, 0), tag, data,
                 bytes);
}

Status Comm::Recv(int src_rank, int tag, void* data, size_t bytes,
                  bool watch_members) {
  sim::RecvBuffer into{data, bytes};
  RCC_RETURN_IF_ERROR(RawRecv(src_rank, sim::ChannelKey(group_->ctx_id, 0),
                              tag, &into, watch_members));
  if (into.mismatched()) return Status(Code::kInternal, "p2p size mismatch");
  return Status::Ok();
}

Status Comm::RecvBlobFrom(int src_rank, int tag, std::vector<uint8_t>* out) {
  sim::RecvBuffer into{.blob = out};
  return RawRecv(src_rank, sim::ChannelKey(group_->ctx_id, 0), tag, &into);
}

Status Comm::SendTo(int dst_rank, int tag, const void* data, size_t bytes) {
  return RawSend(dst_rank, sim::ChannelKey(group_->ctx_id, current_phase_),
                 tag, data, bytes);
}

Status Comm::RecvInto(int src_rank, int tag, sim::RecvBuffer* into) {
  return RawRecv(src_rank, sim::ChannelKey(group_->ctx_id, current_phase_),
                 tag, into);
}

Status Comm::BcastBlob(std::vector<uint8_t>* blob, int root) {
  RCC_RETURN_IF_ERROR(BeginCollective());
  uint64_t size = rank_ == root ? blob->size() : 0;
  Status s = coll::BinomialBcast<uint64_t>(*this, &size, 1, root);
  if (s.ok()) {
    if (rank_ != root) blob->resize(size);
    s = coll::BinomialBcast<uint8_t>(*this, blob->data(), blob->size(), root);
  }
  return FinishCollective(s);
}

}  // namespace rcc::mpi
