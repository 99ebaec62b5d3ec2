#include "serve/protocol.hpp"

#include <bit>
#include <cstddef>
#include <cstring>

#include "util/vec.hpp"

namespace sjs::serve {

namespace {

// Raw-pointer little-endian writers: the encoder targets a caller-owned
// buffer of at least kMaxFrame bytes, so encoding never allocates.
inline std::uint8_t* put_u8(std::uint8_t* out, std::uint8_t v) {
  *out++ = v;
  return out;
}

inline std::uint8_t* put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    *out++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

inline std::uint8_t* put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *out++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

inline std::uint8_t* put_f64(std::uint8_t* out, double v) {
  return put_u64(out, std::bit_cast<std::uint64_t>(v));
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    return pos_ < size_ ? data_[pos_++] : 0;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && pos_ < size_; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::size_t body_size(MsgType type) {
  switch (type) {
    case MsgType::kSubmit:
      return 24;  // workload, rel_deadline, value
    case MsgType::kCancel:
    case MsgType::kQuery:
    case MsgType::kCancelled:
    case MsgType::kCancelFailed:
      return 8;  // ticket
    case MsgType::kStats:
    case MsgType::kDrain:
    case MsgType::kShed:
    case MsgType::kDraining:
      return 0;
    case MsgType::kAccepted:
      return 16;  // ticket, release
    case MsgType::kRejected:
    case MsgType::kError:
      return 1;  // code
    case MsgType::kCompleted:
      return 24;  // ticket, value, time
    case MsgType::kExpired:
      return 16;  // ticket, time
    case MsgType::kQueryReply:
      return 17;  // ticket, state, remaining
    case MsgType::kStatsReply:
      return 8 * 8 + 3 * 8;  // eight u64 counters + three f64
  }
  return static_cast<std::size_t>(-1);
}

std::size_t encode_frame_into(std::uint8_t* out, const Message& m) {
  const std::uint8_t* const start = out;
  const std::size_t payload = kMinPayload + body_size(m.type);
  out = put_u32(out, static_cast<std::uint32_t>(payload));
  out = put_u8(out, static_cast<std::uint8_t>(m.type));
  out = put_u64(out, m.seq);
  switch (m.type) {
    case MsgType::kSubmit:
      out = put_f64(out, m.a);
      out = put_f64(out, m.b);
      out = put_f64(out, m.c);
      break;
    case MsgType::kCancel:
    case MsgType::kQuery:
    case MsgType::kCancelled:
    case MsgType::kCancelFailed:
      out = put_u64(out, m.ticket);
      break;
    case MsgType::kStats:
    case MsgType::kDrain:
    case MsgType::kShed:
    case MsgType::kDraining:
      break;
    case MsgType::kAccepted:
      out = put_u64(out, m.ticket);
      out = put_f64(out, m.a);
      break;
    case MsgType::kRejected:
    case MsgType::kError:
      out = put_u8(out, m.code);
      break;
    case MsgType::kCompleted:
      out = put_u64(out, m.ticket);
      out = put_f64(out, m.a);
      out = put_f64(out, m.b);
      break;
    case MsgType::kExpired:
      out = put_u64(out, m.ticket);
      out = put_f64(out, m.b);
      break;
    case MsgType::kQueryReply:
      out = put_u64(out, m.ticket);
      out = put_u8(out, m.code);
      out = put_f64(out, m.a);
      break;
    case MsgType::kStatsReply:
      out = put_u64(out, m.stats.submitted);
      out = put_u64(out, m.stats.accepted);
      out = put_u64(out, m.stats.rejected);
      out = put_u64(out, m.stats.shed);
      out = put_u64(out, m.stats.completed);
      out = put_u64(out, m.stats.expired);
      out = put_u64(out, m.stats.cancelled);
      out = put_u64(out, m.stats.in_flight);
      out = put_f64(out, m.stats.virtual_now);
      out = put_f64(out, m.stats.admitted_value);
      out = put_f64(out, m.stats.completed_value);
      break;
  }
  return static_cast<std::size_t>(out - start);
}

void append_frame(std::vector<std::uint8_t>& out, const Message& m) {
  // Encodes straight into the tail: room for the largest frame, then trim
  // to what was written. The growth is to the send-buffer high-water;
  // per-message steady state reuses retained capacity.
  const std::size_t old = out.size();
  util::grow(out, old + kMaxFrame);
  const std::size_t n = encode_frame_into(out.data() + old, m);
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(old + n), out.end());
}

std::vector<std::uint8_t> encode_frame(const Message& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kMaxFrame);
  append_frame(out, m);
  return out;
}

bool decode_payload(const std::uint8_t* data, std::size_t size, Message& out,
                    std::string& error) {
  if (size < kMinPayload) {
    error = "payload shorter than type+seq";
    return false;
  }
  const auto type = static_cast<MsgType>(data[0]);
  const std::size_t body = body_size(type);
  if (body == static_cast<std::size_t>(-1)) {
    error = "unknown message type " + std::to_string(data[0]);
    return false;
  }
  if (size != kMinPayload + body) {
    error = "bad length for type " + std::to_string(data[0]) + ": " +
            std::to_string(size) + " != " +
            std::to_string(kMinPayload + body);
    return false;
  }
  out = Message{};
  out.type = type;
  Reader r(data + 1, size - 1);
  out.seq = r.u64();
  switch (type) {
    case MsgType::kSubmit:
      out.a = r.f64();
      out.b = r.f64();
      out.c = r.f64();
      break;
    case MsgType::kCancel:
    case MsgType::kQuery:
    case MsgType::kCancelled:
    case MsgType::kCancelFailed:
      out.ticket = r.u64();
      break;
    case MsgType::kStats:
    case MsgType::kDrain:
    case MsgType::kShed:
    case MsgType::kDraining:
      break;
    case MsgType::kAccepted:
      out.ticket = r.u64();
      out.a = r.f64();
      break;
    case MsgType::kRejected:
    case MsgType::kError:
      out.code = r.u8();
      break;
    case MsgType::kCompleted:
      out.ticket = r.u64();
      out.a = r.f64();
      out.b = r.f64();
      break;
    case MsgType::kExpired:
      out.ticket = r.u64();
      out.b = r.f64();
      break;
    case MsgType::kQueryReply:
      out.ticket = r.u64();
      out.code = r.u8();
      out.a = r.f64();
      break;
    case MsgType::kStatsReply:
      out.stats.submitted = r.u64();
      out.stats.accepted = r.u64();
      out.stats.rejected = r.u64();
      out.stats.shed = r.u64();
      out.stats.completed = r.u64();
      out.stats.expired = r.u64();
      out.stats.cancelled = r.u64();
      out.stats.in_flight = r.u64();
      out.stats.virtual_now = r.f64();
      out.stats.admitted_value = r.f64();
      out.stats.completed_value = r.f64();
      break;
  }
  return true;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (broken_) return;
  buf_.insert(buf_.end(), data, data + size);
}

FrameDecoder::Status FrameDecoder::next(Message& out) {
  if (broken_) return Status::kMalformed;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeader) return Status::kNeedMore;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len < kMinPayload || len > kMaxPayload) {
    broken_ = true;
    error_ = "frame length " + std::to_string(len) + " outside [" +
             std::to_string(kMinPayload) + ", " + std::to_string(kMaxPayload) +
             "]";
    return Status::kMalformed;
  }
  if (avail < kFrameHeader + len) return Status::kNeedMore;
  if (!decode_payload(buf_.data() + pos_ + kFrameHeader, len, out, error_)) {
    broken_ = true;
    return Status::kMalformed;
  }
  pos_ += kFrameHeader + len;
  // Reclaim the consumed prefix once it dominates the buffer, keeping the
  // decoder O(live bytes) over arbitrarily long sessions.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return Status::kOk;
}

}  // namespace sjs::serve
