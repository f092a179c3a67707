#include "serve/batcher.h"

#include <cmath>

#include "common/serial.h"

namespace rcc::serve {

namespace {

uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;  // FNV-1a prime
}

}  // namespace

int Batcher::Admit(const std::vector<Request>& stream, double now,
                   int* prompt_tokens) {
  while (next_arrival_ < static_cast<int>(stream.size()) &&
         stream[static_cast<size_t>(next_arrival_)].arrival <= now) {
    waiting_.push_back(stream[static_cast<size_t>(next_arrival_)].id);
    ++next_arrival_;
  }
  int scheduled = 0;
  int prompts = 0;
  while (!waiting_.empty() &&
         static_cast<int>(running_.size()) < max_batch_) {
    Seq s;
    s.id = waiting_.front();
    waiting_.pop_front();
    s.admit = now;
    prompts += stream[static_cast<size_t>(s.id)].prompt_tokens;
    running_.push_back(s);
    ++scheduled;
  }
  if (prompt_tokens != nullptr) *prompt_tokens = prompts;
  return scheduled;
}

int Batcher::batch_tokens() const {
  return static_cast<int>(running_.size());
}

void Batcher::CommitStep(const std::vector<Request>& stream, double now,
                         float reduced, double step_seconds) {
  ++steps_;
  // Quantize the reduced value so the digest tolerates no drift at all:
  // bit-identical reductions (the resilient-collective guarantee) give
  // bit-identical digests on every rank.
  uint64_t rbits;
  const double rd = static_cast<double>(reduced);
  static_assert(sizeof(rbits) == sizeof(rd));
  __builtin_memcpy(&rbits, &rd, sizeof(rbits));
  // Finished sequences leave running_, compacted in place and in order:
  // the digest folds the running order.
  size_t kept = 0;
  for (Seq& s : running_) {
    s.pos += 1;
    if (s.first_token < 0) {
      s.first_token = now;
      const Request& r = stream[static_cast<size_t>(s.id)];
      fresh_ttft_.push_back(now - r.arrival);
    }
    digest_ = FnvMix(digest_, static_cast<uint64_t>(s.id));
    digest_ = FnvMix(digest_, static_cast<uint64_t>(s.pos));
    digest_ = FnvMix(digest_, rbits);
    const Request& r = stream[static_cast<size_t>(s.id)];
    if (s.pos >= r.decode_tokens) {
      Completion c;
      c.id = s.id;
      c.arrival = r.arrival;
      c.admit = s.admit;
      c.first_token = s.first_token;
      c.done = now;
      c.tokens = s.pos;
      completions_.push_back(c);
    } else {
      running_[kept++] = s;
    }
  }
  running_.resize(kept);
  (void)step_seconds;  // carried by the driver's metric export
}

void Batcher::RestartRunning() {
  for (Seq& s : running_) {
    s.pos = 0;
    // TTFT already served stays served; re-decode only stretches done.
  }
}

void Batcher::TakeFirstTokenLatencies(std::vector<double>* out) {
  out->swap(fresh_ttft_);
  fresh_ttft_.clear();
}

std::vector<uint8_t> Batcher::Serialize() const {
  ByteWriter w;
  w.WriteI32(max_batch_);
  w.WriteI32(next_arrival_);
  w.WriteI64(steps_);
  w.WriteU64(digest_);
  w.WriteU64(waiting_.size());
  for (int id : waiting_) w.WriteI32(id);
  w.WriteU64(running_.size());
  for (const Seq& s : running_) {
    w.WriteI32(s.id);
    w.WriteI32(s.pos);
    w.WriteF64(s.admit);
    w.WriteF64(s.first_token);
  }
  w.WriteU64(completions_.size());
  for (const Completion& c : completions_) {
    w.WriteI32(c.id);
    w.WriteF64(c.arrival);
    w.WriteF64(c.admit);
    w.WriteF64(c.first_token);
    w.WriteF64(c.done);
    w.WriteI32(c.tokens);
  }
  return w.data();
}

Status Batcher::Restore(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  uint64_t n = 0;
  RCC_RETURN_IF_ERROR(r.ReadI32(&max_batch_));
  RCC_RETURN_IF_ERROR(r.ReadI32(&next_arrival_));
  RCC_RETURN_IF_ERROR(r.ReadI64(&steps_));
  RCC_RETURN_IF_ERROR(r.ReadU64(&digest_));
  RCC_RETURN_IF_ERROR(r.ReadU64(&n));
  waiting_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    int id = 0;
    RCC_RETURN_IF_ERROR(r.ReadI32(&id));
    waiting_.push_back(id);
  }
  RCC_RETURN_IF_ERROR(r.ReadU64(&n));
  running_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    Seq s;
    RCC_RETURN_IF_ERROR(r.ReadI32(&s.id));
    RCC_RETURN_IF_ERROR(r.ReadI32(&s.pos));
    RCC_RETURN_IF_ERROR(r.ReadF64(&s.admit));
    RCC_RETURN_IF_ERROR(r.ReadF64(&s.first_token));
    running_.push_back(s);
  }
  RCC_RETURN_IF_ERROR(r.ReadU64(&n));
  completions_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    Completion c;
    RCC_RETURN_IF_ERROR(r.ReadI32(&c.id));
    RCC_RETURN_IF_ERROR(r.ReadF64(&c.arrival));
    RCC_RETURN_IF_ERROR(r.ReadF64(&c.admit));
    RCC_RETURN_IF_ERROR(r.ReadF64(&c.first_token));
    RCC_RETURN_IF_ERROR(r.ReadF64(&c.done));
    RCC_RETURN_IF_ERROR(r.ReadI32(&c.tokens));
    completions_.push_back(c);
  }
  fresh_ttft_.clear();
  if (!r.AtEnd()) return Status(Code::kIoError, "trailing serving state");
  return Status::Ok();
}

}  // namespace rcc::serve
