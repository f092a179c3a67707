#include "gloo/gloo.h"

#include "common/log.h"
#include "common/serial.h"
#include "obs/metrics.h"

namespace rcc::gloo {

Context::Context(sim::Endpoint* ep, std::shared_ptr<mpi::CommGroup> group,
                 double cost_scale)
    : ep_(ep), group_(std::move(group)), cost_scale_(cost_scale) {
  rank_ = group_->RankOfPid(ep_->pid());
  RCC_CHECK(rank_ >= 0) << "gloo context: pid not in membership";
}

std::unique_ptr<Context> Context::Connect(sim::Endpoint& ep, kv::Store& store,
                                          const std::string& round_key,
                                          int world_size, double cost_scale) {
  const auto& costs = ep.fabric().config().costs;
  const sim::Seconds rendezvous_start = ep.now();

  // 1. Allocate a rank slot (one KV round trip).
  auto slot = store.AddAndGet(&ep, round_key + "/slots", 1);
  if (!slot.ok()) throw IoException(slot.status());
  const int my_rank = static_cast<int>(slot.value() - 1);
  if (my_rank >= world_size) {
    throw IoException(Status(Code::kInvalid,
                             "rendezvous round oversubscribed"));
  }

  // 2. Publish this process's address.
  ByteWriter w;
  w.WriteI32(ep.pid());
  Status set = store.Set(&ep, round_key + "/addr/" + std::to_string(my_rank),
                         w.Take());
  if (!set.ok()) throw IoException(set);

  // 3. Wait for every peer's address: one blocking read per rank, as the
  // real store-based rendezvous does (O(P) round trips).
  std::vector<int> pids(world_size, -1);
  for (int r = 0; r < world_size; ++r) {
    auto blob = store.Wait(&ep, round_key + "/addr/" + std::to_string(r));
    if (!blob.ok()) throw IoException(blob.status());
    ByteReader reader(blob.value());
    int32_t pid = -1;
    Status rs = reader.ReadI32(&pid);
    if (!rs.ok()) throw IoException(rs);
    pids[r] = pid;
  }

  // 4. Eager full-mesh connection setup: P-1 TCP-class connects charged
  // serially at this endpoint (Gloo's createDevice/connectFullMesh).
  ep.Busy(costs.conn_setup_tcp * (world_size - 1));

  // A rendezvous participant dying before now leaves a dangling address:
  // detect and fail the whole round, as a timed-out TCP connect would.
  for (int pid : pids) {
    if (!ep.fabric().IsAlive(pid)) {
      throw IoException(Status::ProcFailed(
          {pid}, "peer died during rendezvous"));
    }
  }

  auto group = mpi::GetOrCreateGroup(ep.fabric(), "gloo/" + round_key, pids);
  ep.metrics()
      .GetHistogram("rcc_rendezvous_seconds", {{"stack", "gloo"}})
      ->Observe(ep.now() - rendezvous_start);
  return std::unique_ptr<Context>(
      new Context(&ep, group, cost_scale));
}

void Context::BeginOp(const char* algo, double bytes) {
  if (broken_) {
    throw IoException(Status(Code::kIoError, "context is broken"));
  }
  ++op_seq_;
  current_phase_ = 1 + (op_seq_ % 65534);
  op_algo_ = algo;
  op_bytes_ = bytes;
  op_start_ = ep_->now();
}

void Context::Raise(const Status& s) {
  current_phase_ = 0;
  if (s.ok()) {
    stack_metrics_.For(op_algo_, "gloo", ep_->metrics())
        ->Record(ep_->now() - op_start_, op_bytes_);
    return;
  }
  broken_ = true;
  throw IoException(s);
}

Status Context::SendTo(int dst_rank, int tag, const void* data,
                       size_t bytes) {
  return ep_->Send(group_->pids[dst_rank],
                   sim::ChannelKey(group_->ctx_id, current_phase_), tag, data,
                   bytes, static_cast<double>(bytes) * cost_scale_);
}

Status Context::RecvInto(int src_rank, int tag, sim::RecvBuffer* into) {
  // Gloo watches the whole membership: any member death tears the
  // context down (TCP RST semantics), not just the awaited peer.
  return ep_->Recv(group_->pids[src_rank],
                   sim::ChannelKey(group_->ctx_id, current_phase_), tag, into,
                   /*cancel=*/nullptr, &group_->pids);
}

}  // namespace rcc::gloo
