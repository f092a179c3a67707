#include "sim/fabric.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace rcc::sim {

Fabric::Fabric(SimConfig cfg)
    : cfg_(cfg),
      logs_(std::make_shared<obs::flight::Logs>()) {
  engine_.SetStallObserver([logs = logs_](const std::string& report) {
    if (obs::flight::Enabled()) obs::flight::DumpAll(*logs, "stall: " + report);
  });
}

Fabric::~Fabric() { obs::FoldIntoExportSink(metrics_); }

int Fabric::RegisterProcess(int node) {
  Proc proc;
  proc.node = node;
  proc.alive = true;
  proc.mbox = std::make_unique<Mailbox>();
  procs_.push_back(std::move(proc));
  const int pid = static_cast<int>(procs_.size()) - 1;
  alive_pids_.push_back(pid);  // pids ascend, so the index stays sorted
  if (node >= static_cast<int>(node_pids_.size())) {
    node_pids_.resize(node + 1);
  }
  node_pids_[node].push_back(pid);
  return pid;
}

void Fabric::MarkDead(int pid) {
  procs_[pid].alive = false;
  ++deaths_;
  auto it = std::lower_bound(alive_pids_.begin(), alive_pids_.end(), pid);
  if (it != alive_pids_.end() && *it == pid) alive_pids_.erase(it);
  dead_pids_.insert(
      std::lower_bound(dead_pids_.begin(), dead_pids_.end(), pid), pid);
}

void Fabric::Kill(int pid) {
  if (pid < 0 || pid >= static_cast<int>(procs_.size())) return;
  if (!procs_[pid].alive) return;
  MarkDead(pid);
  // Wake everything: any rank blocked on this peer (directly or through a
  // death watch) must re-evaluate. Fibers parked in timeout waits (KV
  // poll loops) are woken too — their predicate may now never hold.
  for (auto& proc : procs_) proc.mbox->wp.NotifyAll();
  engine_.WakeAllTimeoutParked();
}

void Fabric::KillNode(int node) {
  bool any = false;
  if (node >= 0 && node < static_cast<int>(node_pids_.size())) {
    for (int pid : node_pids_[node]) {
      if (procs_[pid].alive) {
        MarkDead(pid);
        any = true;
      }
    }
  }
  if (any) {
    for (auto& proc : procs_) proc.mbox->wp.NotifyAll();
    engine_.WakeAllTimeoutParked();
  }
}

void Fabric::Leave(int pid) {
  if (!IsAlive(pid)) return;
  procs_[pid].left = true;
  Kill(pid);
}

bool Fabric::Left(int pid) const {
  return pid >= 0 && pid < static_cast<int>(procs_.size()) &&
         procs_[pid].left;
}

bool Fabric::IsAlive(int pid) const {
  if (pid < 0 || pid >= static_cast<int>(procs_.size())) return false;
  return procs_[pid].alive;
}

int Fabric::NodeOf(int pid) const {
  RCC_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size()))
      << "NodeOf: unknown pid " << pid;
  return procs_[pid].node;
}

Seconds Fabric::ArrivalTime(const Message& msg, int dst_node) const {
  const int src_node = procs_[msg.src].node;
  const NetParams& net = cfg_.net;
  const bool local = (src_node == dst_node);
  const Seconds latency = local ? net.intra_latency : net.inter_latency;
  const double bandwidth = local ? net.intra_bandwidth : net.inter_bandwidth;
  return msg.depart + latency + msg.cost_bytes / bandwidth;
}

Status Fabric::Send(int src, int dst, uint64_t channel, int tag,
                    Seconds depart, double cost_bytes, const void* data,
                    size_t bytes) {
  if (src < 0 || src >= static_cast<int>(procs_.size())) {
    return Status(Code::kInvalid, "send from unknown pid");
  }
  if (dst < 0 || dst >= static_cast<int>(procs_.size())) {
    return Status(Code::kNotFound, "send to unregistered pid");
  }
  if (!procs_[src].alive) return Status(Code::kAborted, "sender is dead");
  Proc& to = procs_[dst];
  if (!to.alive) {
    // Eagerly buffered transports drop traffic to dead peers; the sender
    // observes the failure at its next blocking operation on this peer.
    return Status::Ok();
  }
  Node* n = free_ != nullptr ? free_ : &nodes_.emplace_back();
  if (n == free_) free_ = std::exchange(n->next, nullptr);
  Message& msg = n->msg;
  msg.src = src;
  msg.dst = dst;
  msg.channel = channel;
  msg.tag = tag;
  msg.depart = depart;
  msg.cost_bytes = cost_bytes;
  msg.payload.Assign(data, bytes);
  Mailbox& mbox = *to.mbox;
  (mbox.head != nullptr ? mbox.tail->next : mbox.head) = n;
  mbox.tail = n;
  mbox.wp.NotifyAll();
  return Status::Ok();
}

void Fabric::Unlink(Mailbox& mbox, Node* prev, Node* n) {
  (prev != nullptr ? prev->next : mbox.head) = n->next;
  if (mbox.tail == n) mbox.tail = prev;
  n->msg.payload.Recycle();
  n->next = free_;
  free_ = n;
}

bool Fabric::TakeMatch(int self, Seconds* now, int src, uint64_t channel,
                       int tag, RecvBuffer* into) {
  Mailbox& mbox = *procs_[self].mbox;
  for (Node *prev = nullptr, *n = mbox.head; n != nullptr;
       prev = n, n = n->next) {
    Message& m = n->msg;
    if (m.channel != channel || m.tag != tag ||
        (src != kAnySource && m.src != src)) {
      continue;
    }
    const Seconds arrival = ArrivalTime(m, procs_[self].node);
    *now = std::max(*now, arrival) + cfg_.net.recv_overhead;
    into->size = m.payload.size();
    if (into->message != nullptr) {
      *into->message = std::move(m);
    } else if (into->blob != nullptr) {
      *into->blob = std::move(m.payload).TakeVector();
    } else if (into->size == into->bytes && into->size != 0) {
      std::memcpy(into->data, m.payload.data(), into->size);
    }
    Unlink(mbox, prev, n);
    return true;
  }
  return false;
}

Status Fabric::Recv(int self, Seconds* now, int src, uint64_t channel,
                    int tag, RecvBuffer* into, const CancelToken* cancel,
                    const std::vector<int>* death_watch) {
  if (self < 0 || self >= static_cast<int>(procs_.size())) {
    return Status(Code::kInvalid, "recv on unknown pid");
  }
  if (src != kAnySource &&
      (src < 0 || src >= static_cast<int>(procs_.size()))) {
    return Status(Code::kNotFound, "recv from unregistered pid");
  }
  Mailbox& mbox = *procs_[self].mbox;
  bool watch_expired = false;
  // The watched pids found dead at `deaths_seen` deaths: a pid never
  // revives, so the walk is repeated only after another death.
  std::vector<int> dead;
  uint64_t deaths_seen = 0;
  for (;;) {
    if (!procs_[self].alive) return Status(Code::kAborted, "receiver is dead");
    // Delivered data is consumed even when the context is about to be
    // cancelled: matching first keeps completed point-to-point semantics.
    if (TakeMatch(self, now, src, channel, tag, into)) return Status::Ok();
    if (cancel != nullptr && cancel->cancelled()) {
      return Status(Code::kRevoked, "context revoked");
    }
    if (src != kAnySource && !procs_[src].alive) {
      *now += cfg_.net.failure_detect_latency;
      return Status::ProcFailed({src}, "peer failed");
    }
    if (death_watch != nullptr && deaths_ != deaths_seen) {
      deaths_seen = deaths_;
      dead.clear();
      for (int pid : *death_watch) {
        if (pid >= 0 && pid < static_cast<int>(procs_.size()) &&
            !procs_[pid].alive) {
          dead.push_back(pid);
        }
      }
    }
    if (!dead.empty()) {
      // Grace period: let drainable in-flight chains complete so every
      // survivor fails in the same logical op. The grace is the bottom
      // rung (0s) of the quiescence ladder: WaitFor reports a timeout
      // only when nothing else can run, so everything drainable has
      // provably drained.
      if (watch_expired) {
        *now += cfg_.net.failure_detect_latency;
        return Status::ProcFailed(std::move(dead), "watched peer failed");
      }
      if (!mbox.wp.WaitFor(0.0)) watch_expired = true;
      continue;
    }
    mbox.wp.Wait();
  }
}

Status Fabric::TryRecv(int self, Seconds* now, int src, uint64_t channel,
                       int tag, RecvBuffer* into) {
  if (self < 0 || self >= static_cast<int>(procs_.size())) {
    return Status(Code::kInvalid, "recv on unknown pid");
  }
  if (!procs_[self].alive) return Status(Code::kAborted, "receiver is dead");
  if (TakeMatch(self, now, src, channel, tag, into)) return Status::Ok();
  return Status(Code::kUnavailable, "no matching message");
}

void Fabric::PurgeContext(uint64_t context_id) {
  for (auto& proc : procs_) {
    Mailbox& mbox = *proc.mbox;
    Node* prev = nullptr;
    for (Node* n = mbox.head; n != nullptr;) {
      Node* next = n->next;
      if (ChannelContext(n->msg.channel) == context_id) {
        Unlink(mbox, prev, n);
      } else {
        prev = n;
      }
      n = next;
    }
  }
}

void Fabric::WakeAll() {
  for (auto& proc : procs_) proc.mbox->wp.NotifyAll();
}

}  // namespace rcc::sim
