#include "runtime/mailbox.hpp"

namespace snapstab::runtime {

void Mailbox::push_locked(Frame frame) {
  ring_[(head_ + size_) % ring_.size()] = std::move(frame);
  ++size_;
  ++stats_.pushed;
}

bool Mailbox::force_push(Frame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return false;
  if (size_ == ring_.size()) {
    head_ = (head_ + 1) % ring_.size();
    --size_;
    ++stats_.overwritten;
  }
  push_locked(std::move(frame));
  return true;
}

std::optional<Mailbox::Frame> Mailbox::try_pop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ == 0) return std::nullopt;
  Frame frame = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --size_;
  ++stats_.popped;
  return frame;
}

Mailbox::Stats Mailbox::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace snapstab::runtime
