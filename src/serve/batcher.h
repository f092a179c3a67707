// Continuous-batching scheduler state. This is the SPMD-replicated
// serving cursor: every tensor-parallel rank holds an identical copy
// and mutates it with identical inputs (the shared arrival stream, the
// synchronized virtual clock, the bit-identical allreduced decode
// value), so after any shrink the survivors' batchers already agree and
// NO in-flight request loses its sequence state — the repair replays
// only the interrupted decode step, never the batch.
//
// Request lifecycle:  generated -> waiting (arrival <= now) ->
// running (scheduled into the batch, admit stamped) -> one token per
// decode step -> completed (decode_tokens committed).
//
// The whole state round-trips through Serialize/Restore for async
// joiner admission: the pre-staged snapshot plus a post-splice delta
// broadcast make the joiner's copy (including the completion log, so
// its end-of-run stream equals the survivors') byte-equal.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "serve/request.h"

namespace rcc::serve {

class Batcher {
 public:
  explicit Batcher(int max_batch) : max_batch_(max_batch < 1 ? 1 : max_batch) {}

  // Moves every generated request with arrival <= now into the waiting
  // queue (FIFO by id; the stream is arrival-sorted), then fills the
  // running batch up to max_batch, stamping admit times. Returns the
  // number of requests newly scheduled into the batch; when
  // `prompt_tokens` is non-null it receives their summed prompt lengths
  // (the prefill work this step must pay).
  int Admit(const std::vector<Request>& stream, double now,
            int* prompt_tokens = nullptr);

  // Commits one decode token to every running sequence at virtual time
  // `now`, folding the allreduced step value into the state digest
  // (bit-identical across ranks <=> identical decode results). Finished
  // sequences move to the completion log. `step_seconds` is the decode
  // step's wall duration (per-token latency for every running seq).
  void CommitStep(const std::vector<Request>& stream, double now,
                  float reduced, double step_seconds);

  // Tear-down-and-rebuild baseline semantics: a failure destroys the KV
  // caches, so every running sequence restarts decode from position 0
  // (prompt recompute + all tokens again). Waiting/completed untouched.
  void RestartRunning();

  int waiting() const { return static_cast<int>(waiting_.size()); }
  int running() const { return static_cast<int>(running_.size()); }
  int batch_tokens() const;  // decode positions in flight this step
  // Next unadmitted arrival index into the stream.
  int next_arrival() const { return next_arrival_; }
  bool Drained(int stream_size) const {
    return next_arrival_ >= stream_size && waiting_.empty() &&
           running_.empty();
  }

  const std::vector<Completion>& completions() const { return completions_; }
  uint64_t digest() const { return digest_; }
  int64_t steps() const { return steps_; }

  // Per-seq TTFT observations since the last drain (virtual seconds),
  // swapped into *out for metric export; both buffers keep their
  // capacity.
  void TakeFirstTokenLatencies(std::vector<double>* out);

  std::vector<uint8_t> Serialize() const;
  Status Restore(const std::vector<uint8_t>& blob);

 private:
  struct Seq {
    int id = 0;
    int pos = 0;  // decode tokens committed so far
    double admit = 0.0;
    double first_token = -1.0;  // < 0 until the first commit
  };

  int max_batch_;
  int next_arrival_ = 0;
  std::deque<int> waiting_;        // request ids, FIFO
  std::vector<Seq> running_;       // scheduled batch, admission order
  std::vector<Completion> completions_;
  std::vector<double> fresh_ttft_;
  uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  int64_t steps_ = 0;
};

}  // namespace rcc::serve
