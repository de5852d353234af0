// Benchmark-side span recorder. Spans are recorded around calls into the
// middleware's public functions only (nothing inside src/ is traced):
// name, start, end and the enclosing span. They stay in memory and are
// written once at the end as Chrome trace_event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when tracing is off. `name` must be a string literal.
  int begin(const char* name);
  void end(int id);

  /// Closes the span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Total duration per span name, in seconds.
  std::map<std::string, double> totals() const;

  /// Sum of self times (a span's duration minus the part its direct
  /// children cover) over every span except roots (spans without a
  /// parent): the time the trace attributes to a layer.
  double attributed_s() const;

  std::size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per
  /// span. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
