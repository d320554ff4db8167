#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace firefly::sim {

EventId EventQueue::schedule(std::int64_t at, EventFn fn) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{at, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(id);
  ++live_count_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return false;  // already fired or cancelled
  pending_.erase(it);
  cancelled_.insert(id);
  --live_count_;
  return true;
}

void EventQueue::skip_cancelled() const {
  auto& self = const_cast<EventQueue&>(*this);
  while (!self.heap_.empty()) {
    const Entry& top = self.heap_.front();
    const auto it = self.cancelled_.find(top.id);
    if (it == self.cancelled_.end()) return;
    self.cancelled_.erase(it);
    std::pop_heap(self.heap_.begin(), self.heap_.end(), Later{});
    self.heap_.pop_back();
  }
}

std::int64_t EventQueue::next_time() const {
  skip_cancelled();
  if (heap_.empty()) return INT64_MAX;
  return heap_.front().time;
}

FiredEvent EventQueue::pop() {
  skip_cancelled();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  pending_.erase(e.id);
  --live_count_;
  return FiredEvent{e.time, e.id, std::move(e.fn)};
}

}  // namespace firefly::sim
