// Binary serialisation used for checkpoints, rendezvous payloads and
// model-state broadcasts. Little-endian, length-prefixed, no alignment
// requirements on the reader side.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace rcc {

class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }
  void WriteFloats(const float* data, size_t count) {
    WriteU64(count);
    WriteRaw(data, count * sizeof(float));
  }
  void WriteBytes(const std::vector<uint8_t>& b) {
    WriteU64(b.size());
    WriteRaw(b.data(), b.size());
  }
  void WriteRaw(const void* data, size_t bytes) {
    // resize + memcpy rather than a range insert: GCC 12 misreads the
    // inlined insert into an empty buffer as an overflow
    // (-Wstringop-overflow).
    if (bytes == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + bytes);
    std::memcpy(buf_.data() + at, data, bytes);
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

  Status ReadString(std::string* s) {
    uint64_t n = 0;
    RCC_RETURN_IF_ERROR(ReadU64(&n));
    if (n > Remaining()) return Status(Code::kIoError, "string overruns buffer");
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::Ok();
  }
  Status ReadFloats(std::vector<float>* out) {
    uint64_t n = 0;
    RCC_RETURN_IF_ERROR(ReadU64(&n));
    if (n * sizeof(float) > Remaining())
      return Status(Code::kIoError, "float array overruns buffer");
    out->resize(n);
    return ReadRaw(out->data(), n * sizeof(float));
  }
  Status ReadBytes(std::vector<uint8_t>* out) {
    uint64_t n = 0;
    RCC_RETURN_IF_ERROR(ReadU64(&n));
    if (n > Remaining()) return Status(Code::kIoError, "bytes overrun buffer");
    out->resize(n);
    return ReadRaw(out->data(), n);
  }
  Status ReadRaw(void* out, size_t bytes) {
    if (bytes > Remaining())
      return Status(Code::kIoError, "read past end of buffer");
    if (bytes != 0) std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return Status::Ok();
  }

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace rcc
