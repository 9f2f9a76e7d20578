#include "comm/wire.hpp"

#include <cstring>

namespace ltfb::comm::wire {

Buffer encode_frame(const Frame& frame) {
  // kind, comm_id, tag, src, dst, seq, flow_id, payload count.
  constexpr std::size_t kHeaderBytes = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4;
  const std::size_t body_bytes = kHeaderBytes + frame.payload.size();
  LTFB_CHECK_MSG(body_bytes <= kMaxFrameBytes,
                 "frame of " << body_bytes << " bytes exceeds the wire limit");
  // Length prefix first, so the payload is copied once, straight into the
  // frame.
  Serializer out;
  out.u32(static_cast<std::uint32_t>(body_bytes))
      .u8(static_cast<std::uint8_t>(frame.kind))
      .u64(frame.comm_id)
      .i64(frame.tag)
      .u32(static_cast<std::uint32_t>(frame.src))
      .u32(static_cast<std::uint32_t>(frame.dst))
      .u64(frame.seq)
      .u64(frame.flow_id)
      .u32(static_cast<std::uint32_t>(frame.payload.size()))
      .bytes(frame.payload);
  LTFB_ASSERT(out.size() == sizeof(std::uint32_t) + body_bytes);
  return out.take();
}

Frame decode_frame_body(std::span<const std::uint8_t> body) {
  Deserializer in(body);
  Frame frame;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(FrameKind::ShrinkAbort)) {
    std::ostringstream oss;
    oss << "malformed frame: unknown kind " << static_cast<int>(kind);
    throw FormatError(oss.str());
  }
  frame.kind = static_cast<FrameKind>(kind);
  frame.comm_id = in.u64();
  frame.tag = in.i64();
  frame.src = static_cast<int>(in.u32());
  frame.dst = static_cast<int>(in.u32());
  frame.seq = in.u64();
  frame.flow_id = in.u64();
  const std::uint32_t payload_bytes = in.u32();
  if (payload_bytes != in.remaining()) {
    std::ostringstream oss;
    oss << "malformed frame: payload count " << payload_bytes
        << " disagrees with " << in.remaining() << " remaining bytes";
    throw FormatError(oss.str());
  }
  frame.payload = in.bytes(payload_bytes);
  in.expect_end();
  return frame;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t count) {
  buffer_.insert(buffer_.end(), data, data + count);
}

std::optional<Frame> FrameDecoder::next() {
  if (buffer_.size() < sizeof(std::uint32_t)) return std::nullopt;
  std::uint32_t length = 0;
  std::memcpy(&length, buffer_.data(), sizeof(length));
  if (length > kMaxFrameBytes) {
    std::ostringstream oss;
    oss << "malformed frame: length prefix " << length
        << " exceeds the wire limit";
    throw FormatError(oss.str());
  }
  const std::size_t total = sizeof(std::uint32_t) + length;
  if (buffer_.size() < total) return std::nullopt;
  Frame frame = decode_frame_body(std::span<const std::uint8_t>(
      buffer_.data() + sizeof(std::uint32_t), length));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

}  // namespace ltfb::comm::wire
