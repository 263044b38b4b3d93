// Virtual-time discrete-event engine.
//
// The FL algorithms schedule "local training finished on device d" events and
// the engine pops them in (time, sequence) order, so concurrent device
// activity interleaves exactly as it would on real hardware while staying
// fully deterministic (ties broken by insertion sequence).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fedhisyn::sim {

/// One scheduled occurrence.  `device` is free-form payload for the caller.
struct Event {
  double time = 0.0;
  std::uint64_t sequence = 0;  // tie-breaker: FIFO among equal times
  std::size_t device = 0;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

/// Min-heap of events with a monotonically advancing clock.
class EventQueue {
 public:
  /// Schedule an event at absolute virtual time `time` (>= now()).
  void schedule(double time, std::size_t device);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pop the earliest event and advance the clock to it.
  Event pop();

  double now() const { return now_; }
  /// Reset clock and drop all events (start of a new round).
  void reset(double time = 0.0);

 private:
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace fedhisyn::sim
