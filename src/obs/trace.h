#ifndef URPSM_SRC_OBS_TRACE_H_
#define URPSM_SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace urpsm::obs {

/// Records engine spans and emits Chrome trace-event JSON (loadable in
/// Perfetto / chrome://tracing). Disabled (empty path) it records
/// nothing and TraceSpan below reduces to a null check.
///
/// Events are duration Begin/End pairs ("ph":"B"/"E") or instants
/// ("ph":"i"), with integer args (window epoch, request id, hit/miss
/// counts, ...). Timestamps are microseconds on the steady clock
/// relative to recorder construction, taken *before* the recorder
/// mutex, so events of one thread appear in program order —
/// non-decreasing ts per tid (the schema test asserts this).
///
/// Names and arg keys must be string literals (or otherwise outlive
/// the recorder): they are stored as const char* to keep recording
/// allocation-free apart from the event vector itself.
///
/// Memory bound: at most kMaxEvents events are retained; later events
/// are counted in dropped() and omitted from the file.
class TraceRecorder {
 public:
  struct Arg {
    const char* key;
    std::int64_t value;
  };

  static constexpr std::size_t kMaxEvents = std::size_t{1} << 22;

  /// Empty path disables recording entirely.
  explicit TraceRecorder(std::string path);
  ~TraceRecorder();  // flushes if not already flushed

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }
  const std::string& path() const { return path_; }

  void Begin(const char* name, std::initializer_list<Arg> args = {});
  void End(const char* name);
  void Instant(const char* name, std::initializer_list<Arg> args = {});

  /// Writes the Chrome trace JSON file (one event per line inside
  /// "traceEvents"). Idempotent; called by the destructor. Events
  /// recorded after the first Flush are lost.
  void Flush();

  std::size_t event_count() const;
  std::size_t dropped() const;

 private:
  struct Event {
    const char* name;
    char ph;  // 'B', 'E', 'i'
    double ts_us;
    int tid;
    std::vector<Arg> args;
  };

  void Record(const char* name, char ph, std::initializer_list<Arg> args);

  const std::string path_;
  const bool enabled_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::thread::id, int> tids_;
  std::size_t dropped_ = 0;
  bool flushed_ = false;
};

/// RAII scoped span: Begin on construction, End on destruction. Null-
/// safe — pass nullptr (or a disabled recorder) and both ends are a
/// single branch, no clock reads.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* t, const char* name,
            std::initializer_list<TraceRecorder::Arg> args = {})
      : t_(t != nullptr && t->enabled() ? t : nullptr), name_(name) {
    if (t_ != nullptr) t_->Begin(name_, args);
  }
  ~TraceSpan() {
    if (t_ != nullptr) t_->End(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* t_;
  const char* name_;
};

}  // namespace urpsm::obs

#endif  // URPSM_SRC_OBS_TRACE_H_
