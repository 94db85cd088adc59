#ifndef SENTINELPP_CORE_DECISION_LOG_H_
#define SENTINELPP_CORE_DECISION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "rules/decision.h"
#include "telemetry/metrics.h"

namespace sentinel {

/// One entry of the engine's decision audit trail.
///
/// Beyond the verdict, a record carries everything the audit exporter's
/// stable schema needs: the wall-clock capture instant (so durable streams
/// correlate with external logs even though the engine runs on simulated
/// time), and the request's attribution — who asked for what — resolved to
/// strings at capture so the record outlives any symbol table.
struct DecisionRecord {
  Time when = 0;
  /// The request event's name, e.g. "rbac.addActiveRole".
  std::string operation;
  Decision decision;
  /// Per-log monotonic sequence number, assigned by DecisionLog::Push.
  /// Consumers order and dedupe by it; gaps mean records were evicted.
  uint64_t seq = 0;
  /// Wall-clock capture time, microseconds since the Unix epoch (distinct
  /// from `when`, which is the engine's simulated clock).
  int64_t wall_us = 0;
  /// Request attribution, empty when the event does not carry the param.
  /// For rbac.contextChanged, `op` holds the context key and `object` the
  /// context value (the closest request-shaped slots a context move has).
  std::string user;
  std::string session;
  std::string role;
  std::string op;
  std::string object;
  std::string purpose;
  /// Sampled dispatch latency in microseconds; 0 when this dispatch was not
  /// one of the engine's latency samples (see set_telemetry_sampling).
  int64_t latency_us = 0;
};

/// \brief Fixed-size ring buffer over the most recent DecisionRecords.
///
/// Under sustained traffic the audit trail must stay O(capacity): once full,
/// each Push overwrites the oldest record in place (no allocation, no
/// deque-block churn) and bumps the overflow counter so administrators can
/// tell how much history was shed. Indexing is oldest-first; capacity 0
/// disables recording entirely (every Push counts as overflow).
class DecisionLog {
 public:
  explicit DecisionLog(size_t capacity = 256) : capacity_(capacity) {}

  /// Appends a record, evicting the oldest when full. Assigns the record's
  /// sequence number; capacity 0 disables recording (no sequence is
  /// consumed, so a drain cursor sees a disabled log as simply empty).
  void Push(DecisionRecord record) {
    if (capacity_ == 0) {
      BumpOverflow();
      return;
    }
    record.seq = next_seq_++;
    if (buffer_.size() < capacity_) {
      buffer_.push_back(std::move(record));
      return;
    }
    buffer_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
    BumpOverflow();
  }

  /// \brief Ordered incremental consumption for the audit exporter.
  ///
  /// Invokes `fn` on every retained record with seq >= *cursor, oldest
  /// first, then advances *cursor past the newest. Only the undrained tail
  /// is visited — a drain that finds nothing new costs one comparison, not
  /// a copy of the ring. Returns the number of records that were evicted
  /// before they could be drained (the seq gap between the cursor and the
  /// oldest retained record); the caller accounts those as losses.
  template <typename Fn>
  uint64_t DrainInto(uint64_t* cursor, Fn&& fn) const {
    if (empty() || *cursor >= next_seq_) return 0;
    uint64_t missed = 0;
    const uint64_t oldest = front().seq;
    if (*cursor < oldest) {
      missed = oldest - *cursor;
      *cursor = oldest;
    }
    for (size_t i = static_cast<size_t>(*cursor - oldest); i < size(); ++i) {
      fn((*this)[i]);
    }
    *cursor = back().seq + 1;
    return missed;
  }

  /// Sequence the next pushed record will receive; a cursor equal to this
  /// value has drained everything.
  uint64_t next_seq() const { return next_seq_; }

  /// Resizes the trail; when shrinking, the oldest surplus records are
  /// dropped (counted as overflow).
  void set_capacity(size_t capacity) {
    std::vector<DecisionRecord> kept;
    const size_t keep = capacity < size() ? capacity : size();
    BumpOverflow(size() - keep);
    kept.reserve(keep);
    for (size_t i = size() - keep; i < size(); ++i) {
      kept.push_back(std::move((*this)[i]));
    }
    buffer_ = std::move(kept);
    head_ = 0;
    capacity_ = capacity;
  }

  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }
  size_t capacity() const { return capacity_; }
  /// Number of records dropped (evicted or rejected) so far.
  uint64_t overflow() const { return overflow_; }

  /// Mirrors the overflow count into a registry counter so it shows up in
  /// RenderMetrics alongside the other per-shard series (the engine binds
  /// its `decision_log_overflow_total` here at construction). Single-writer,
  /// like the log itself. Not owned.
  void set_overflow_counter(telemetry::Counter* counter) {
    overflow_counter_ = counter;
    if (counter != nullptr && overflow_ > counter->value()) {
      counter->Inc(overflow_ - counter->value());
    }
  }

  /// Oldest-first access: [0] is the oldest retained record.
  const DecisionRecord& operator[](size_t i) const {
    return buffer_[(head_ + i) % buffer_.size()];
  }
  DecisionRecord& operator[](size_t i) {
    return buffer_[(head_ + i) % buffer_.size()];
  }
  const DecisionRecord& front() const { return (*this)[0]; }
  const DecisionRecord& back() const { return (*this)[size() - 1]; }

 private:
  void BumpOverflow(uint64_t n = 1) {
    overflow_ += n;
    if (overflow_counter_ != nullptr) overflow_counter_->Inc(n);
  }

  std::vector<DecisionRecord> buffer_;
  size_t head_ = 0;  // Index of the oldest record once the buffer is full.
  size_t capacity_;
  uint64_t overflow_ = 0;
  uint64_t next_seq_ = 0;
  telemetry::Counter* overflow_counter_ = nullptr;  // Not owned.
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_DECISION_LOG_H_
