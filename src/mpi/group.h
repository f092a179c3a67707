// Communicator groups: the shared, immutable membership of one
// communicator instance, plus the revocation token ULFM uses to
// interrupt in-flight operations.
//
// In a real MPI these structures are replicated per process and kept
// consistent by the runtime; in the simulation the replicas are one
// shared object in the fabric's rendezvous table (all ranks deriving
// the same key get the same instance), freed with the simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fabric.h"

namespace rcc::mpi {

struct CommGroup {
  uint64_t ctx_id = 0;
  std::vector<int> pids;  // rank -> pid, immutable after creation
  sim::CancelToken revoke;

  int RankOfPid(int pid) const {
    for (size_t r = 0; r < pids.size(); ++r) {
      if (pids[r] == pid) return static_cast<int>(r);
    }
    return -1;
  }
};

// Deterministic rendezvous for group creation: every rank computing the
// same key receives the same CommGroup instance (the first caller
// constructs it from `pids` with the fabric's next context id).
std::shared_ptr<CommGroup> GetOrCreateGroup(sim::Fabric& fabric,
                                            const std::string& key,
                                            const std::vector<int>& pids);

// Builds the rendezvous key of a derived communicator.
std::string GroupKey(uint64_t parent_ctx, const std::string& op,
                     const std::vector<int>& pids);

}  // namespace rcc::mpi
