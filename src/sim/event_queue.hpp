// Time-ordered event queue for the discrete-event engine. Events are
// closures tagged with a sequence number so simultaneous events fire in
// scheduling order (deterministic replay). Cancellation is by generation
// counters at the call sites (lazy invalidation), not by queue surgery: a
// superseded event stays queued until its time and then returns at once.
// Each Server keeps one generation for its one pending completion event,
// so a recompute leaves at most one superseded event behind.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace gsight::sim {

using SimTime = double;  ///< seconds since simulation start

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Contract: `when` must be finite (non-NaN) and non-negative.
  void push(SimTime when, Callback cb);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const;
  /// Pop and return the earliest event (time, callback). Contract: popped
  /// times are monotonically non-decreasing over the queue's lifetime.
  std::pair<SimTime, Callback> pop();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
  };
  /// Strict total order on (when, seq) — seq is unique, so pop order is
  /// fully determined and replay-deterministic regardless of heap shape.
  static bool earlier(const Entry& a, const Entry& b) {
    // Exact comparison of stored (not computed) times is the tie-break
    // that makes replay deterministic, so the lint rule is waived here.
    return a.when < b.when ||
           (a.when == b.when && a.seq < b.seq);  // gsight-lint: allow(simtime-eq)
  }
  void sift_up(std::size_t i);
  void sift_down(Entry&& e);

  // Hand-rolled binary min-heap. std::priority_queue is copy-based (top()
  // is const), which forced each Callback behind a shared_ptr; holding
  // entries by value lets push/pop move the closures instead of
  // allocating a control block per event on the hottest simulator path.
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0.0;
};

}  // namespace gsight::sim
