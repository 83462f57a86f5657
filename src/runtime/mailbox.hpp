// mailbox.hpp — a bounded, lossy, FIFO mailbox of frames.
//
// One mailbox realizes one directed channel of the in-process transport
// (runtime::ThreadRuntime). It holds wire frames — the same bytes a socket
// would carry — and enforces the paper's bounded-capacity semantics: a
// push into a full mailbox loses the pushed frame. Storage is a ring of
// `capacity` slots allocated once.
#ifndef SNAPSTAB_RUNTIME_MAILBOX_HPP
#define SNAPSTAB_RUNTIME_MAILBOX_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace snapstab::runtime {

class Mailbox {
 public:
  using Frame = std::vector<std::uint8_t>;

  explicit Mailbox(std::size_t capacity = 1) : ring_(capacity) {}

  // Thread-safe. Returns false when the mailbox was full (frame lost).
  bool try_push(Frame frame) {
    return try_push_with([&frame] { return std::move(frame); });
  }
  // try_push of the frame `make()` returns, called only when there is
  // room: a sender pays no encoding for a frame the channel would lose.
  template <typename MakeFrame>
  bool try_push_with(MakeFrame&& make) {
    std::lock_guard<std::mutex> lock(mu_);
    if (size_ >= ring_.size()) {
      ++stats_.lost_on_full;
      return false;
    }
    push_locked(make());
    return true;
  }
  // Thread-safe. Like try_push, but a full mailbox drops its oldest frame
  // to make room: a fault rewriting the channel's content keeps it within
  // capacity. Returns false only when the capacity is 0.
  bool force_push(Frame frame);
  // Thread-safe. The head frame, or nullopt when empty.
  std::optional<Frame> try_pop();

  std::size_t capacity() const noexcept { return ring_.size(); }

  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t lost_on_full = 0;
    std::uint64_t popped = 0;
    std::uint64_t overwritten = 0;  // oldest frames force_push dropped
  };
  Stats stats() const;

 private:
  void push_locked(Frame frame);

  mutable std::mutex mu_;
  std::vector<Frame> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace snapstab::runtime

#endif  // SNAPSTAB_RUNTIME_MAILBOX_HPP
