#include "serve/server.hpp"

namespace sjs::serve {

void send_frame(EventLoop& loop, int conn, const Message& m) {
  std::uint8_t frame[kMaxFrame];
  const std::size_t n = encode_frame_into(frame, m);
  loop.send(conn, frame, n);
}

}  // namespace sjs::serve
