// Ad-hoc closures on the engine, for tests.  The engine carries only
// typed events; this adapter runs arbitrary std::function callbacks
// through its timers so a test can script a one-off action in a line.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace quartz::test {

/// Schedules closures as timers on `Engine` (an EventQueue or a
/// Network).  Each closure runs once; the helper must outlive every
/// closure it scheduled.
template <class Engine>
class ClosureTimer final : public sim::TimerHandler {
 public:
  explicit ClosureTimer(Engine& engine) : engine_(engine) {}
  ClosureTimer(const ClosureTimer&) = delete;
  ClosureTimer& operator=(const ClosureTimer&) = delete;

  void at(TimePs when, std::function<void()> fn) {
    closures_.push_back(std::move(fn));
    engine_.schedule_timer(when, {this, 0, closures_.size() - 1, 0});
  }
  void after(TimePs delay, std::function<void()> fn) { at(engine_.now() + delay, std::move(fn)); }

 private:
  void on_timer(const sim::TimerEvent& event) override {
    // Move the closure out first: it may schedule more, growing the list.
    const std::function<void()> fn = std::move(closures_[event.a]);
    fn();
  }

  Engine& engine_;
  std::vector<std::function<void()>> closures_;
};

}  // namespace quartz::test
