#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_ns(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes close in reverse order, so the span is the innermost one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::totals() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    if (s.end_ns >= 0) out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return out;
}

double Tracer::attributed_s() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0 && spans_[i].end_ns >= 0)
      sum += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
  return static_cast<double>(sum) * 1e-9;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
