// PIOEval trace: lossless multi-level tracing (Recorder/DXT-style).
//
// A Tracer keeps the complete, timestamped execution chronology. This is
// the expensive-but-exact option of §IV.A.2: "traces record a detailed
// report of the execution chronology of function and system calls together
// with a timestamp, which produces much more log data". The in-memory trace
// can be filtered, merged, serialized (JSONL + compact binary), and fed to
// the replay and simulation subsystems.
#pragma once

#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "trace/event.hpp"

namespace pio::trace {

/// A recorded trace: events in record order (per rank monotonically
/// increasing start times; global order is merge order).
/// The canonical event order: by (start, rank, end).
[[nodiscard]] bool time_order(const TraceEvent& a, const TraceEvent& b);

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TraceEvent> events) : events_(std::move(events)) {}

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  void append(TraceEvent event) { events_.push_back(std::move(event)); }

  /// Stable sort by time_order — canonical order for comparisons.
  void sort_by_time();

  /// Events matching a predicate, e.g. one layer or one rank.
  [[nodiscard]] Trace filtered(const std::function<bool(const TraceEvent&)>& keep) const;
  [[nodiscard]] Trace layer(Layer layer) const;
  [[nodiscard]] Trace rank(std::int32_t rank) const;

  /// Ranks present, sorted.
  [[nodiscard]] std::vector<std::int32_t> ranks() const;
  /// Distinct paths touched, sorted.
  [[nodiscard]] std::vector<std::string> paths() const;
  [[nodiscard]] SimTime span() const;  ///< last end - first start (0 if empty)
  [[nodiscard]] Bytes bytes_read() const;
  [[nodiscard]] Bytes bytes_written() const;

  /// Merge two traces, keeping time order.
  [[nodiscard]] static Trace merge(const Trace& a, const Trace& b);

  // -- serialization -------------------------------------------------------

  /// One JSON object per line.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] static Trace read_jsonl(std::istream& in);

  /// Non-throwing variant of read_jsonl for untrusted inputs. Each line
  /// must be one flat object holding all nine event fields (other keys are
  /// ignored, a repeated key is an Error), with nothing after it. Strings
  /// take the escapes JSON defines, and a \u escape four hex digits naming
  /// one byte. Integers are read whole into the field's own type: a sign
  /// on an unsigned field, a trailing byte or an overflow is an Error, and
  /// so is an unknown layer or op or an `ok` other than true or false.
  /// Empty lines are skipped. read_jsonl wraps this and throws
  /// std::runtime_error with the same message.
  [[nodiscard]] static Result<Trace> try_read_jsonl(std::istream& in);

  /// Compact little-endian binary (path table + fixed 48-byte records,
  /// DESIGN.md §15) vs ~160 bytes/event for JSONL.
  void write_binary(std::ostream& out) const;
  [[nodiscard]] static Trace read_binary(std::istream& in);

  /// Non-throwing variant of read_binary for untrusted inputs. It reads the
  /// rest of the stream and validates declared counts against the bytes
  /// present *before* any allocation, so a corrupt header cannot trigger a
  /// huge resize; a record naming a path id outside the table or a layer
  /// or op byte outside its enum, or any truncation, is an Error rather
  /// than an exception. Bytes after the last record are ignored.
  /// read_binary wraps this and throws std::runtime_error with the same
  /// message.
  [[nodiscard]] static Result<Trace> try_read_binary(std::istream& in);

 private:
  std::vector<TraceEvent> events_;
};

/// Thread-safe sink that accumulates a Trace.
class Tracer final : public Sink {
 public:
  void record(const TraceEvent& event) override;

  /// Snapshot the trace so far (copies under the lock).
  [[nodiscard]] Trace snapshot() const;
  /// Move the trace out and reset the tracer.
  [[nodiscard]] Trace take();
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  Trace trace_;
};

}  // namespace pio::trace
