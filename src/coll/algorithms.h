// Collective algorithms over the Transport abstraction.
//
// All kernels are *out-of-place* (sendbuf is never destroyed): the ULFM
// resilient wrappers re-execute a failed collective on a shrunk
// communicator using the preserved input (paper Section 3.2).
//
// On any peer failure the algorithm returns the failure status
// immediately; the contents of recvbuf are then unspecified.
//
// Tag discipline: the owning communicator hands every collective call a
// fresh channel, so tags here only need to disambiguate steps *within*
// one call. Each algorithm uses its own tag range.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "coll/transport.h"
#include "common/status.h"

namespace rcc::coll {

namespace detail {
inline int LargestPowerOfTwoAtMost(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// Chunk layout used by ring algorithms: chunk c covers
// [offset(c), offset(c+1)) with the first (count % P) chunks one larger.
inline size_t ChunkOffset(size_t count, int nchunks, int c) {
  const size_t base = count / nchunks;
  const size_t extra = count % nchunks;
  return static_cast<size_t>(c) * base + std::min<size_t>(c, extra);
}
inline size_t ChunkSize(size_t count, int nchunks, int c) {
  return ChunkOffset(count, nchunks, c + 1) - ChunkOffset(count, nchunks, c);
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

// Ring allreduce: reduce-scatter pass followed by an allgather pass.
// Bandwidth-optimal (2(P-1)/P * bytes on the wire per rank); the
// algorithm of choice for large gradient tensors.
template <typename T, typename Op = SumOp>
Status RingAllreduce(Transport& t, const T* sendbuf, T* recvbuf,
                     size_t count) {
  const int P = t.size();
  const int r = t.rank();
  std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  if (P == 1 || count == 0) return Status::Ok();

  const int right = (r + 1) % P;
  const int left = (r - 1 + P) % P;
  std::vector<T> tmp(detail::ChunkSize(count, P, 0));  // max chunk size

  // Reduce-scatter: after step s, chunk (r - s - 1 + P) % P holds the
  // partial sum of s + 2 contributions.
  for (int s = 0; s < P - 1; ++s) {
    const int send_chunk = (r - s + P) % P;
    const int recv_chunk = (r - s - 1 + P) % P;
    const size_t send_off = detail::ChunkOffset(count, P, send_chunk);
    const size_t send_n = detail::ChunkSize(count, P, send_chunk);
    const size_t recv_off = detail::ChunkOffset(count, P, recv_chunk);
    const size_t recv_n = detail::ChunkSize(count, P, recv_chunk);
    RCC_RETURN_IF_ERROR(
        t.SendTo(right, /*tag=*/100 + s, recvbuf + send_off, send_n * sizeof(T)));
    RCC_RETURN_IF_ERROR(
        t.RecvFrom(left, /*tag=*/100 + s, tmp.data(), recv_n * sizeof(T)));
    for (size_t i = 0; i < recv_n; ++i) {
      recvbuf[recv_off + i] = Op::Apply(recvbuf[recv_off + i], tmp[i]);
    }
  }
  // Allgather: circulate the finished chunks.
  for (int s = 0; s < P - 1; ++s) {
    const int send_chunk = (r - s + 1 + P) % P;
    const int recv_chunk = (r - s + P) % P;
    const size_t send_off = detail::ChunkOffset(count, P, send_chunk);
    const size_t send_n = detail::ChunkSize(count, P, send_chunk);
    const size_t recv_off = detail::ChunkOffset(count, P, recv_chunk);
    const size_t recv_n = detail::ChunkSize(count, P, recv_chunk);
    RCC_RETURN_IF_ERROR(
        t.SendTo(right, /*tag=*/300 + s, recvbuf + send_off, send_n * sizeof(T)));
    RCC_RETURN_IF_ERROR(
        t.RecvFrom(left, /*tag=*/300 + s, recvbuf + recv_off, recv_n * sizeof(T)));
  }
  return Status::Ok();
}

// Ring reduce-scatter: the first pass of the ring allreduce, exposed for
// hierarchical compositions. On return, rank r holds the fully-reduced
// chunk (r + 1) % P (the standard ring ownership layout) inside recvbuf;
// *owned_chunk is set to that index. Other chunks of recvbuf hold
// partial sums.
template <typename T, typename Op = SumOp>
Status RingReduceScatter(Transport& t, const T* sendbuf, T* recvbuf,
                         size_t count, int* owned_chunk) {
  const int P = t.size();
  const int r = t.rank();
  std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  *owned_chunk = (r + 1) % P;
  if (P == 1 || count == 0) return Status::Ok();
  const int right = (r + 1) % P;
  const int left = (r - 1 + P) % P;
  std::vector<T> tmp(detail::ChunkSize(count, P, 0));
  for (int s = 0; s < P - 1; ++s) {
    const int send_chunk = (r - s + P) % P;
    const int recv_chunk = (r - s - 1 + P) % P;
    const size_t send_off = detail::ChunkOffset(count, P, send_chunk);
    const size_t send_n = detail::ChunkSize(count, P, send_chunk);
    const size_t recv_off = detail::ChunkOffset(count, P, recv_chunk);
    const size_t recv_n = detail::ChunkSize(count, P, recv_chunk);
    RCC_RETURN_IF_ERROR(t.SendTo(right, /*tag=*/100 + s, recvbuf + send_off,
                                 send_n * sizeof(T)));
    RCC_RETURN_IF_ERROR(
        t.RecvFrom(left, /*tag=*/100 + s, tmp.data(), recv_n * sizeof(T)));
    for (size_t i = 0; i < recv_n; ++i) {
      recvbuf[recv_off + i] = Op::Apply(recvbuf[recv_off + i], tmp[i]);
    }
  }
  return Status::Ok();
}

// Ring allgather over the ring ownership layout produced by
// RingReduceScatter (rank r contributes chunk (r + 1) % P in place).
template <typename T>
Status RingAllgatherChunks(Transport& t, T* recvbuf, size_t count) {
  const int P = t.size();
  const int r = t.rank();
  if (P == 1 || count == 0) return Status::Ok();
  const int right = (r + 1) % P;
  const int left = (r - 1 + P) % P;
  for (int s = 0; s < P - 1; ++s) {
    const int send_chunk = (r - s + 1 + P) % P;
    const int recv_chunk = (r - s + P) % P;
    const size_t send_off = detail::ChunkOffset(count, P, send_chunk);
    const size_t send_n = detail::ChunkSize(count, P, send_chunk);
    const size_t recv_off = detail::ChunkOffset(count, P, recv_chunk);
    const size_t recv_n = detail::ChunkSize(count, P, recv_chunk);
    RCC_RETURN_IF_ERROR(t.SendTo(right, /*tag=*/300 + s, recvbuf + send_off,
                                 send_n * sizeof(T)));
    RCC_RETURN_IF_ERROR(t.RecvFrom(left, /*tag=*/300 + s, recvbuf + recv_off,
                                   recv_n * sizeof(T)));
  }
  return Status::Ok();
}

// Recursive-doubling allreduce (MPICH-style non-power-of-two handling).
// Latency-optimal (ceil(log2 P) rounds); preferred for small messages.
template <typename T, typename Op = SumOp>
Status RecursiveDoublingAllreduce(Transport& t, const T* sendbuf, T* recvbuf,
                                  size_t count) {
  const int P = t.size();
  const int r = t.rank();
  std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  if (P == 1 || count == 0) return Status::Ok();

  const int pof2 = detail::LargestPowerOfTwoAtMost(P);
  const int rem = P - pof2;
  const size_t bytes = count * sizeof(T);
  std::vector<T> tmp(count);

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      // Fold: hand my contribution to the odd neighbour; rejoin at the end.
      RCC_RETURN_IF_ERROR(t.SendTo(r + 1, /*tag=*/400, recvbuf, bytes));
      newrank = -1;
    } else {
      RCC_RETURN_IF_ERROR(t.RecvFrom(r - 1, /*tag=*/400, tmp.data(), bytes));
      for (size_t i = 0; i < count; ++i) {
        recvbuf[i] = Op::Apply(recvbuf[i], tmp[i]);
      }
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank != -1) {
    int step = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++step) {
      const int newdst = newrank ^ mask;
      const int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      RCC_RETURN_IF_ERROR(t.SendTo(dst, /*tag=*/410 + step, recvbuf, bytes));
      RCC_RETURN_IF_ERROR(
          t.RecvFrom(dst, /*tag=*/410 + step, tmp.data(), bytes));
      for (size_t i = 0; i < count; ++i) {
        recvbuf[i] = Op::Apply(recvbuf[i], tmp[i]);
      }
    }
  }

  if (r < 2 * rem) {
    if (r % 2 == 1) {
      RCC_RETURN_IF_ERROR(t.SendTo(r - 1, /*tag=*/490, recvbuf, bytes));
    } else {
      RCC_RETURN_IF_ERROR(t.RecvFrom(r + 1, /*tag=*/490, recvbuf, bytes));
    }
  }
  return Status::Ok();
}

// Rabenseifner allreduce: reduce-scatter by recursive halving followed
// by an allgather by recursive doubling. Bandwidth-optimal like the
// ring but with log2(P) rounds; requires a power-of-two world (falls
// back to recursive doubling otherwise).
template <typename T, typename Op = SumOp>
Status RabenseifnerAllreduce(Transport& t, const T* sendbuf, T* recvbuf,
                             size_t count) {
  const int P = t.size();
  const int r = t.rank();
  if ((P & (P - 1)) != 0 || static_cast<size_t>(P) > count || P <= 2) {
    return RecursiveDoublingAllreduce<T, Op>(t, sendbuf, recvbuf, count);
  }
  std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  std::vector<T> tmp(count / 2 + 1);

  // Reduce-scatter (recursive halving): after each step this rank is
  // responsible for half of its previous segment, fully reduced over
  // the partner group. Both partners derive the identical split point
  // from the shared segment bounds; the parent bounds are stacked so the
  // allgather can unwind the exact same splits.
  size_t lo = 0, hi = count;
  std::vector<std::pair<size_t, size_t>> parents;
  int step = 0;
  for (int mask = 1; mask < P; mask <<= 1, ++step) {
    const int partner = r ^ mask;
    const size_t mid = lo + (hi - lo) / 2;
    parents.emplace_back(lo, hi);
    if (r & mask) {
      // Keep the upper half; ship the lower half.
      RCC_RETURN_IF_ERROR(t.SendTo(partner, /*tag=*/430 + step,
                                   recvbuf + lo, (mid - lo) * sizeof(T)));
      RCC_RETURN_IF_ERROR(t.RecvFrom(partner, /*tag=*/430 + step, tmp.data(),
                                     (hi - mid) * sizeof(T)));
      for (size_t i = mid; i < hi; ++i) {
        recvbuf[i] = Op::Apply(recvbuf[i], tmp[i - mid]);
      }
      lo = mid;
    } else {
      RCC_RETURN_IF_ERROR(t.SendTo(partner, /*tag=*/430 + step,
                                   recvbuf + mid, (hi - mid) * sizeof(T)));
      RCC_RETURN_IF_ERROR(t.RecvFrom(partner, /*tag=*/430 + step, tmp.data(),
                                     (mid - lo) * sizeof(T)));
      for (size_t i = lo; i < mid; ++i) {
        recvbuf[i] = Op::Apply(recvbuf[i], tmp[i - lo]);
      }
      hi = mid;
    }
  }

  // Allgather (recursive doubling, reverse order): pop each parent
  // segment and swap halves with the same partner.
  for (int mask = P >> 1; mask > 0; mask >>= 1, ++step) {
    const int partner = r ^ mask;
    const auto [p_lo, p_hi] = parents.back();
    parents.pop_back();
    const size_t mid = p_lo + (p_hi - p_lo) / 2;
    RCC_RETURN_IF_ERROR(t.SendTo(partner, /*tag=*/430 + step, recvbuf + lo,
                                 (hi - lo) * sizeof(T)));
    if (r & mask) {
      // I own the upper half [mid, p_hi); receive the lower half.
      RCC_RETURN_IF_ERROR(t.RecvFrom(partner, /*tag=*/430 + step,
                                     recvbuf + p_lo,
                                     (mid - p_lo) * sizeof(T)));
    } else {
      RCC_RETURN_IF_ERROR(t.RecvFrom(partner, /*tag=*/430 + step,
                                     recvbuf + mid,
                                     (p_hi - mid) * sizeof(T)));
    }
    lo = p_lo;
    hi = p_hi;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Broadcast / Reduce
// ---------------------------------------------------------------------------

// Binomial-tree broadcast from `root`.
template <typename T>
Status BinomialBcast(Transport& t, T* buf, size_t count, int root) {
  const int P = t.size();
  const int r = t.rank();
  if (P == 1) return Status::Ok();
  const size_t bytes = count * sizeof(T);
  const int relative = (r - root + P) % P;

  int mask = 1;
  while (mask < P) {
    if (relative & mask) {
      const int src = (relative - mask + root) % P;
      RCC_RETURN_IF_ERROR(t.RecvFrom(src, /*tag=*/500, buf, bytes));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < P) {
      const int dst = (relative + mask + root) % P;
      RCC_RETURN_IF_ERROR(t.SendTo(dst, /*tag=*/500, buf, bytes));
    }
    mask >>= 1;
  }
  return Status::Ok();
}

// Binomial-tree reduce to `root` (commutative ops only, which covers
// every op in this library).
template <typename T, typename Op = SumOp>
Status BinomialReduce(Transport& t, const T* sendbuf, T* recvbuf,
                      size_t count, int root) {
  const int P = t.size();
  const int r = t.rank();
  std::memcpy(recvbuf, sendbuf, count * sizeof(T));
  if (P == 1 || count == 0) return Status::Ok();
  const size_t bytes = count * sizeof(T);
  const int relative = (r - root + P) % P;
  // A child's contribution lands on the (fiber) stack when it is as
  // small as the latency-bound allreduce's are, on the heap otherwise.
  // The stack buffer is kept at 1 KiB: every op task's stack that runs
  // this kernel stays resident that much deeper.
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr size_t kStackBytes = 1024;
  alignas(T) unsigned char small[kStackBytes];
  std::vector<T> large;
  T* tmp = reinterpret_cast<T*>(small);
  if (bytes > kStackBytes) {
    large.resize(count);
    tmp = large.data();
  }

  for (int mask = 1; mask < P; mask <<= 1) {
    if (relative & mask) {
      const int dst = (relative - mask + root) % P;
      return t.SendTo(dst, /*tag=*/520, recvbuf, bytes);
    }
    if (relative + mask < P) {
      const int src = (relative + mask + root) % P;
      RCC_RETURN_IF_ERROR(t.RecvFrom(src, /*tag=*/520, tmp, bytes));
      for (size_t i = 0; i < count; ++i) {
        recvbuf[i] = Op::Apply(recvbuf[i], tmp[i]);
      }
    }
  }
  return Status::Ok();
}

// Reduce-to-root + broadcast; the latency-bound allreduce variant used by
// the NCCL-like layer for very small tensors.
template <typename T, typename Op = SumOp>
Status ReduceBcastAllreduce(Transport& t, const T* sendbuf, T* recvbuf,
                            size_t count) {
  RCC_RETURN_IF_ERROR((BinomialReduce<T, Op>(t, sendbuf, recvbuf, count, 0)));
  return BinomialBcast<T>(t, recvbuf, count, 0);
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

// Ring allgather: every rank contributes `count` elements; recvbuf holds
// size() * count elements ordered by rank.
template <typename T>
Status RingAllgather(Transport& t, const T* sendbuf, T* recvbuf,
                     size_t count) {
  const int P = t.size();
  const int r = t.rank();
  std::memcpy(recvbuf + static_cast<size_t>(r) * count, sendbuf,
              count * sizeof(T));
  if (P == 1 || count == 0) return Status::Ok();
  const int right = (r + 1) % P;
  const int left = (r - 1 + P) % P;
  for (int s = 0; s < P - 1; ++s) {
    const int send_block = (r - s + P) % P;
    const int recv_block = (r - s - 1 + P) % P;
    RCC_RETURN_IF_ERROR(t.SendTo(right, /*tag=*/600 + s,
                                 recvbuf + static_cast<size_t>(send_block) * count,
                                 count * sizeof(T)));
    RCC_RETURN_IF_ERROR(t.RecvFrom(left, /*tag=*/600 + s,
                                   recvbuf + static_cast<size_t>(recv_block) * count,
                                   count * sizeof(T)));
  }
  return Status::Ok();
}

// Bruck allgather: ceil(log2 P) rounds; latency-optimal for small blocks.
// Works in recvbuf itself: block j accumulates the block of rank
// (r + j) % P, and a final rotation puts every block at its owner.
template <typename T>
Status BruckAllgather(Transport& t, const T* sendbuf, T* recvbuf,
                      size_t count) {
  const int P = t.size();
  const int r = t.rank();
  if (count == 0) return Status::Ok();
  std::memmove(recvbuf, sendbuf, count * sizeof(T));

  int step = 0;
  for (int k = 1; k < P; k <<= 1, ++step) {
    const int nblocks = std::min(k, P - k);
    const int dst = (r - k + P) % P;
    const int src = (r + k) % P;
    RCC_RETURN_IF_ERROR(t.SendTo(dst, /*tag=*/700 + step, recvbuf,
                                 static_cast<size_t>(nblocks) * count * sizeof(T)));
    RCC_RETURN_IF_ERROR(t.RecvFrom(src, /*tag=*/700 + step,
                                   recvbuf + static_cast<size_t>(k) * count,
                                   static_cast<size_t>(nblocks) * count * sizeof(T)));
  }
  // Block j belongs at (r + j) % P: rotate right by r blocks.
  std::rotate(recvbuf, recvbuf + static_cast<size_t>(P - r) * count,
              recvbuf + static_cast<size_t>(P) * count);
  return Status::Ok();
}

// Allgather of variable-size blobs over a ring (serialised state,
// agreement payloads). all->at(i) receives rank i's blob.
Status AllgatherBlobs(Transport& t, const std::vector<uint8_t>& mine,
                      std::vector<std::vector<uint8_t>>* all);

// ---------------------------------------------------------------------------
// Gather / Scatter / Barrier
// ---------------------------------------------------------------------------

template <typename T>
Status LinearGather(Transport& t, const T* sendbuf, T* recvbuf, size_t count,
                    int root) {
  const int P = t.size();
  const int r = t.rank();
  if (r != root) {
    return t.SendTo(root, /*tag=*/800, sendbuf, count * sizeof(T));
  }
  std::memcpy(recvbuf + static_cast<size_t>(r) * count, sendbuf,
              count * sizeof(T));
  for (int src = 0; src < P; ++src) {
    if (src == root) continue;
    RCC_RETURN_IF_ERROR(t.RecvFrom(src, /*tag=*/800,
                                   recvbuf + static_cast<size_t>(src) * count,
                                   count * sizeof(T)));
  }
  return Status::Ok();
}

template <typename T>
Status LinearScatter(Transport& t, const T* sendbuf, T* recvbuf, size_t count,
                     int root) {
  const int P = t.size();
  const int r = t.rank();
  if (r == root) {
    for (int dst = 0; dst < P; ++dst) {
      if (dst == root) continue;
      RCC_RETURN_IF_ERROR(t.SendTo(dst, /*tag=*/820,
                                   sendbuf + static_cast<size_t>(dst) * count,
                                   count * sizeof(T)));
    }
    std::memcpy(recvbuf, sendbuf + static_cast<size_t>(root) * count,
                count * sizeof(T));
    return Status::Ok();
  }
  return t.RecvFrom(root, /*tag=*/820, recvbuf, count * sizeof(T));
}

// Dissemination barrier: ceil(log2 P) rounds, no root.
Status DisseminationBarrier(Transport& t);

}  // namespace rcc::coll
