// Calibration constants for the simulated cluster.
//
// Defaults model a Summit-like machine (the paper's testbed): 6 V100-class
// GPUs per node, 23 GB/s node injection bandwidth, NVLink-class intra-node
// links. Software-path constants (rendezvous, driver re-init, worker
// cold-start) are set to the magnitudes the paper's Fig. 4-7 narrative
// describes and are overridable per run.
#pragma once

#include <cstddef>

namespace rcc::sim {

using Seconds = double;

// Hardware / LogGP-style network parameters.
struct NetParams {
  // Inter-node (host network, InfiniBand-class).
  Seconds inter_latency = 1.5e-6;        // one-way latency
  double inter_bandwidth = 23.0e9;       // bytes/s, Summit node injection bw

  // Intra-node (NVLink-class, used by the NCCL-like layer).
  Seconds intra_latency = 0.8e-6;
  double intra_bandwidth = 50.0e9;       // bytes/s

  // Per-message software overhead at sender and receiver (MPI-class).
  Seconds send_overhead = 0.4e-6;
  Seconds recv_overhead = 0.4e-6;

  // Compute rate of one simulated GPU for training math (fp32, with a
  // realistic efficiency factor applied to the V100 peak).
  double gpu_flops = 7.8e12;

  // Host memory bandwidth (in-memory checkpoint save/restore).
  double host_mem_bandwidth = 8.0e9;

  // Time from a process dying to a peer operation observing it (heartbeat /
  // transport error propagation).
  Seconds failure_detect_latency = 5.0e-3;
};

// Software-path cost constants for the two stacks' recovery paths.
struct RuntimeCosts {
  // --- shared ---
  Seconds kv_roundtrip = 0.5e-3;         // one KV-store client round trip
  Seconds conn_setup_tcp = 5.0e-3;       // Gloo-like TCP pair connect
  Seconds conn_setup_verbs = 0.8e-3;     // MPI-like verbs QP setup
  Seconds nccl_init_base = 90.0e-3;      // NCCL communicator bootstrap
  Seconds nccl_init_per_rank = 12.0e-3;  // topology discovery + ring build

  // --- Elastic Horovod (baseline) recovery path, per Fig. 4 phases ---
  Seconds eh_exception_catch = 0.08;     // surfacing exception to the driver
  Seconds eh_shutdown = 0.35;            // stop ongoing ops, drain queues
  Seconds eh_elastic_reinit = 1.2;       // re-initialize elastic mode (driver)
  Seconds eh_gloo_reinit = 0.9;          // reload / re-init the Gloo library
  Seconds eh_blacklist_probe = 0.15;     // per failed host: probe + blacklist

  // --- ULFM path ---
  Seconds ulfm_errhandler_dispatch = 0.5e-3;  // error handler invocation
  Seconds ulfm_revoke_propagation = 2.0e-3;   // token flood to all ranks

  // --- worker admission (both stacks) ---
  // Cold-starting a worker: spawning the process, loading libraries,
  // creating the CUDA context, importing the framework. Dominates upscale
  // cost in the paper, paid once per admitted worker.
  Seconds worker_coldstart = 28.0;
  // Warm rejoin of an already-provisioned replacement (Scenario II at the
  // process level): process spawn + CUDA context only.
  Seconds worker_warmstart = 3.5;
};

struct SimConfig {
  NetParams net;
  RuntimeCosts costs;
  int gpus_per_node = 6;   // Summit: 6 V100 per node
};

}  // namespace rcc::sim
