#include "sim/events.hpp"

#include "common/check.hpp"

namespace fedhisyn::sim {

void EventQueue::schedule(double time, std::size_t device) {
  FEDHISYN_CHECK_MSG(time >= now_, "cannot schedule in the past (t=" << time << ", now="
                                                                     << now_ << ")");
  heap_.push(Event{time, next_sequence_++, device});
}

Event EventQueue::pop() {
  FEDHISYN_CHECK(!heap_.empty());
  Event event = heap_.top();
  heap_.pop();
  now_ = event.time;
  return event;
}

void EventQueue::reset(double time) {
  heap_ = {};
  now_ = time;
  next_sequence_ = 0;
}

}  // namespace fedhisyn::sim
