#include "mpi/group.h"

#include <sstream>

namespace rcc::mpi {

std::shared_ptr<CommGroup> GetOrCreateGroup(sim::Fabric& fabric,
                                            const std::string& key,
                                            const std::vector<int>& pids) {
  auto group = fabric.Rendezvous<CommGroup>(key);
  if (group->ctx_id == 0) {  // first caller: context ids start at 1
    group->ctx_id = fabric.NextContextId();
    group->pids = pids;
  }
  return group;
}

std::string GroupKey(uint64_t parent_ctx, const std::string& op,
                     const std::vector<int>& pids) {
  std::ostringstream os;
  os << parent_ctx << '/' << op;
  for (int pid : pids) os << ':' << pid;
  return os.str();
}

}  // namespace rcc::mpi
