// Fig. 3 (conceptual): the fault recovery / reconfiguration capability
// of the communication layers. Demonstrated by injecting the same
// process failure under each library and reporting where the failure
// surfaces and what recovery primitive (if any) the library offers.
#include <atomic>
#include <cstdio>

#include "bench_util.h"
#include "gloo/gloo.h"
#include "nccl/nccl.h"
#include "ulfm/ulfm.h"

int main() {
  using namespace rcc;

  // --- Gloo: exception, context permanently broken ---
  std::atomic<int> gloo_exceptions{0};
  {
    sim::Cluster cluster;
    kv::Store store;
    cluster.Spawn(4, [&](sim::Endpoint& ep) {
      // The victim may die before a survivor's full-mesh connect
      // finishes, so the failure can surface in Connect as well as in
      // the collective: both are the same IoException.
      try {
        auto ctx = gloo::Context::Connect(ep, store, "fig3", 4);
        if (ctx->rank() == 1) {
          ep.fabric().Kill(ep.pid());
          return;
        }
        std::vector<float> in(4096, 1.0f), out(4096);
        ctx->Allreduce<float>(in.data(), out.data(), in.size());
      } catch (const gloo::IoException&) {
        gloo_exceptions++;
      }
    });
    cluster.Join();
  }

  // --- NCCL: error status, communicator aborted ---
  std::atomic<int> nccl_broken{0};
  {
    sim::Cluster cluster;
    cluster.Spawn(4, [&](sim::Endpoint& ep) {
      auto comm = nccl::Comm::InitRank(ep, {0, 1, 2, 3}, "fig3");
      if (comm == nullptr) return;
      if (comm->rank() == 1) {
        ep.fabric().Kill(ep.pid());
        return;
      }
      std::vector<float> in(100000, 1.0f), out(100000);
      if (!comm->Allreduce<float>(in.data(), out.data(), in.size()).ok() &&
          comm->broken()) {
        nccl_broken++;
      }
    });
    cluster.Join();
  }

  // --- ULFM: error status, shrink + continue on the same job ---
  std::atomic<int> ulfm_recovered{0};
  {
    sim::Cluster cluster;
    cluster.Spawn(4, [&](sim::Endpoint& ep) {
      mpi::Comm comm = mpi::Comm::World(ep, {0, 1, 2, 3});
      if (comm.rank() == 1) {
        ep.fabric().Kill(ep.pid());
        return;
      }
      std::vector<float> in(4096, 1.0f), out(4096);
      Status st = comm.Allreduce(in.data(), out.data(), in.size(),
                                 mpi::AllreduceAlgo::kRing);
      if (st.code() == Code::kProcFailed) ulfm::Revoke(comm);
      auto shrunk = ulfm::Shrink(comm);
      if (shrunk.ok() &&
          shrunk.value().Allreduce(in.data(), out.data(), in.size()).ok()) {
        ulfm_recovered++;
      }
    });
    cluster.Join();
  }

  Table table({"layer", "failure surfaces as", "recovery primitive",
               "training impact", "observed"});
  table.AddRow({"Gloo", "IoException, context broken",
                "none (full re-rendezvous required)",
                "stop + driver restart",
                std::to_string(gloo_exceptions.load()) +
                    "/3 survivors threw"});
  table.AddRow({"NCCL", "async error, communicator aborted",
                "none (ncclCommAbort + re-init)",
                "stop + communicator rebuild",
                std::to_string(nccl_broken.load()) + "/3 survivors broken"});
  table.AddRow({"ULFM MPI", "per-operation error code",
                "revoke / agree / shrink / spawn",
                "repair in place, repeat one collective",
                std::to_string(ulfm_recovered.load()) +
                    "/3 survivors recovered"});
  bench::EmitTable(table,
                   "Fig. 3: fault recovery & reconfiguration capability "
                   "by communication layer",
                   "fig3_capability_layers.csv");
  return 0;
}
