#include "sim/slot_calendar.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace firefly::sim {

namespace {
constexpr std::uint64_t kGenMask = 0xFFFFFFFFull;
}

EventId SlotCalendar::schedule(std::int64_t at, EventFn fn) {
  if (at < 0) throw std::invalid_argument("SlotCalendar::schedule: slot before 0");
  const auto idx = arena_.allocate();
  Rec& r = arena_[idx];
  r.time = at;
  r.seq = next_seq_++;
  r.next = kNil;
  r.state = State::kLive;
  r.fn = std::move(fn);
  ++live_count_;

  if (at < cur_slot_) {
    // The cursor peeked past this slot: run_until() stopping short of the
    // next event advances next_time()'s cursor beyond now(), and a later
    // schedule can land in the gap.  Retreat and rebuild (rare).
    cur_slot_ = at;
    rebuild();
  }
  place(idx);
  return ((static_cast<std::uint64_t>(idx) + 1) << 32) | r.gen;
}

bool SlotCalendar::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || !arena_.in_range(hi - 1)) return false;
  const auto idx = static_cast<std::uint32_t>(hi - 1);
  Rec& r = arena_[idx];
  if (r.state != State::kLive || r.gen != (id & kGenMask)) return false;
  r.state = State::kCancelled;
  r.fn = nullptr;  // drop capture resources eagerly; the record is pruned lazily
  assert(live_count_ > 0);
  --live_count_;
  return true;
}

std::int64_t SlotCalendar::next_time() const {
  // peek() prunes cancelled records and advances the cursor, which mutates
  // book-keeping but never the observable event order.
  auto* self = const_cast<SlotCalendar*>(this);
  const std::uint32_t idx = self->peek();
  return idx == kNil ? INT64_MAX : self->arena_[idx].time;
}

FiredEvent SlotCalendar::pop() {
  const std::uint32_t idx = peek();
  assert(idx != kNil && "pop() on empty calendar");
  Rec& r = arena_[idx];
  FiredEvent out{r.time, ((static_cast<std::uint64_t>(idx) + 1) << 32) | r.gen,
                 std::move(r.fn)};
  Bucket& b = l0_[static_cast<std::size_t>(cur_slot_) & (kBuckets - 1)];
  [[maybe_unused]] const std::uint32_t popped = unlink_head(b, kL0);
  assert(popped == idx);
  assert(live_count_ > 0);
  --live_count_;
  free_rec(idx);
  return out;
}

void SlotCalendar::append(Bucket& b, std::uint32_t idx, Region region) {
  Rec& r = arena_[idx];
  r.next = kNil;
  if (b.head == kNil) {
    b.head = b.tail = idx;
  } else {
    arena_[b.tail].next = idx;
    b.tail = idx;
  }
  ++residents_[region];
}

std::uint32_t SlotCalendar::unlink_head(Bucket& b, Region region) {
  const std::uint32_t idx = b.head;
  assert(idx != kNil);
  b.head = arena_[idx].next;
  if (b.head == kNil) b.tail = kNil;
  assert(residents_[region] > 0);
  --residents_[region];
  return idx;
}

void SlotCalendar::place(std::uint32_t idx) {
  const std::int64_t slot = arena_[idx].time;
  assert(slot >= cur_slot_);
  if ((slot >> 8) == (cur_slot_ >> 8)) {
    append(l0_[static_cast<std::size_t>(slot) & (kBuckets - 1)], idx, kL0);
  } else if ((slot >> 16) == (cur_slot_ >> 16)) {
    append(l1_[static_cast<std::size_t>(slot >> 8) & (kBuckets - 1)], idx, kL1);
  } else if ((slot >> 24) == (cur_slot_ >> 24)) {
    append(l2_[static_cast<std::size_t>(slot >> 16) & (kBuckets - 1)], idx, kL2);
  } else {
    append(far_, idx, kFar);
  }
}

void SlotCalendar::cascade(Bucket& b, Region region) {
  // Walking in list order preserves sequence order; the level-0 buckets a
  // page crossing cascades into are empty (the previous page fully drained),
  // so per-bucket FIFO order remains sequence order.
  std::uint32_t idx = b.head;
  b.head = b.tail = kNil;
  while (idx != kNil) {
    const std::uint32_t next = arena_[idx].next;
    assert(residents_[region] > 0);
    --residents_[region];
    if (arena_[idx].state == State::kCancelled) {
      free_rec(idx);
    } else {
      place(idx);
    }
    idx = next;
  }
}

void SlotCalendar::free_rec(std::uint32_t idx) {
  Rec& r = arena_[idx];
  r.state = State::kFree;
  ++r.gen;  // invalidate outstanding ids for this slot
  r.fn = nullptr;
  arena_.release(idx);
}

void SlotCalendar::rebuild() {
  // Gather every live record, restore global sequence order, and re-place
  // relative to the (possibly moved) cursor.  Only two rare paths need this:
  // cursor retreat after a peek overshoot, and far-horizon (2^24 slot)
  // crossings, where merged lists would lose relative sequence order.
  std::vector<std::uint32_t> live;
  live.reserve(live_count_);
  auto gather = [&](Bucket& b) {
    std::uint32_t idx = b.head;
    b.head = b.tail = kNil;
    while (idx != kNil) {
      const std::uint32_t next = arena_[idx].next;
      if (arena_[idx].state == State::kCancelled) {
        free_rec(idx);
      } else {
        live.push_back(idx);
      }
      idx = next;
    }
  };
  for (auto& b : l0_) gather(b);
  for (auto& b : l1_) gather(b);
  for (auto& b : l2_) gather(b);
  gather(far_);
  residents_[kL0] = residents_[kL1] = residents_[kL2] = residents_[kFar] = 0;
  std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
    return arena_[a].seq < arena_[b].seq;
  });
  for (const std::uint32_t idx : live) place(idx);
}

void SlotCalendar::advance_cursor() {
  if (residents_[kL0] == 0 && residents_[kL1] == 0 && residents_[kL2] == 0) {
    // Everything pending sits beyond the far horizon: jump straight there.
    cur_slot_ = ((cur_slot_ >> 24) + 1) << 24;
    rebuild();
    return;
  }
  if (residents_[kL0] == 0 && residents_[kL1] == 0) {
    cur_slot_ = ((cur_slot_ >> 16) + 1) << 16;  // next level-2 boundary
  } else if (residents_[kL0] == 0) {
    cur_slot_ = ((cur_slot_ >> 8) + 1) << 8;  // next level-1 boundary
  } else {
    ++cur_slot_;
  }
  if ((cur_slot_ & 0xFFFFFF) == 0) {
    // Far-horizon crossing: far-list records merge with resident ones in
    // arbitrary relative order, so rebuild from scratch.
    rebuild();
    return;
  }
  if ((cur_slot_ & 0xFFFF) == 0) {
    cascade(l2_[static_cast<std::size_t>(cur_slot_ >> 16) & (kBuckets - 1)], kL2);
  }
  if ((cur_slot_ & 0xFF) == 0) {
    cascade(l1_[static_cast<std::size_t>(cur_slot_ >> 8) & (kBuckets - 1)], kL1);
  }
}

std::uint32_t SlotCalendar::peek() {
  if (live_count_ == 0) return kNil;
  for (;;) {
    Bucket& b = l0_[static_cast<std::size_t>(cur_slot_) & (kBuckets - 1)];
    while (b.head != kNil && arena_[b.head].state == State::kCancelled) {
      free_rec(unlink_head(b, kL0));
    }
    if (b.head != kNil) return b.head;
    advance_cursor();
  }
}

void SlotCalendar::clone_into(SlotCalendar& dst) const {
  // Slot-exact arena copy: freelist chain and generations carry over, so the
  // ((idx+1) << 32 | gen) ids devices hold remain valid against the copy.
  // Cancelled and free slots hold a null fn; clone() maps null to null.
  dst.arena_.copy_from(arena_, [](Rec& d, const Rec& s) {
    d.time = s.time;
    d.seq = s.seq;
    d.next = s.next;
    d.gen = s.gen;
    d.state = s.state;
    d.fn = s.fn.clone();
  });
  std::copy(std::begin(l0_), std::end(l0_), std::begin(dst.l0_));
  std::copy(std::begin(l1_), std::end(l1_), std::begin(dst.l1_));
  std::copy(std::begin(l2_), std::end(l2_), std::begin(dst.l2_));
  dst.far_ = far_;
  dst.cur_slot_ = cur_slot_;
  std::copy(std::begin(residents_), std::end(residents_), std::begin(dst.residents_));
  dst.next_seq_ = next_seq_;
  dst.live_count_ = live_count_;
}

}  // namespace firefly::sim
