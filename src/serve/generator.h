// Open-loop request generator: Poisson arrivals (optionally modulated
// by a diurnal load curve) with per-request prompt/decode sizes, all
// drawn from the shared audited samplers in common/sampling.h.
//
// GenerateArrivals is a *pure function* of its config — no clocks, no
// engine state — so the stream is identical on every rank and on a
// joiner admitted mid-run.
// The serving driver replays the stream against virtual time instead of
// generating online; open-loop means arrivals never backpressure.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.h"

namespace rcc::serve {

struct TrafficConfig {
  uint64_t seed = 1;
  int requests = 256;            // stream length; the run drains it fully
  double base_rps = 50.0;        // mean arrival rate (requests / vsecond)
  double diurnal_amplitude = 0;  // 0 = flat Poisson; (0,1] = load curve
  double diurnal_period_s = 60;  // virtual period of the curve
  int min_prompt = 8;            // prompt tokens, uniform [min, max]
  int max_prompt = 64;
  int min_decode = 4;            // decode tokens, uniform [min, max]
  int max_decode = 32;
};

// Environment knobs (RCC_SERVE_SEED, RCC_SERVE_REQUESTS, RCC_SERVE_RPS,
// RCC_SERVE_DIURNAL, RCC_SERVE_PERIOD) over the given defaults.
TrafficConfig TrafficFromEnv(TrafficConfig defaults = {});

// The full arrival stream, sorted by (arrival, id), ids dense from 0.
std::vector<Request> GenerateArrivals(const TrafficConfig& cfg);

}  // namespace rcc::serve
