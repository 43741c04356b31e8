#include "trace.hpp"

#include <cstdio>

namespace commitbench {

namespace {
thread_local std::uint32_t tl_parent = 0;
}  // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t key) : t_(t) {
  if (!t_.enabled_) return;
  {
    std::lock_guard<std::mutex> lk(t_.m_);
    s_.id = t_.next_id_++;
  }
  s_.name = name;
  s_.key = key;
  s_.parent = tl_parent;
  saved_parent_ = tl_parent;
  tl_parent = s_.id;
  s_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!t_.enabled_) return;
  s_.end_ns = now_ns();
  tl_parent = saved_parent_;
  t_.record(s_);
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<Span> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(m_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"key\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.key),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace commitbench
