#include "cpu.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace commitbench {

std::set<pid_t> list_threads() {
  std::set<pid_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.insert(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(d);
  return out;
}

pid_t this_thread_id() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::uint64_t thread_cpu_ns(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", static_cast<int>(tid));
  if (FILE* f = std::fopen(path, "r")) {
    unsigned long long run_ns = 0;
    const int got = std::fscanf(f, "%llu", &run_ns);
    std::fclose(f);
    if (got == 1) return run_ns;
  }
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/stat", static_cast<int>(tid));
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const std::size_t len = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[len] = '\0';
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000ull / static_cast<unsigned long long>(hz > 0 ? hz : 100));
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  double mb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) mb = static_cast<double>(kb) / 1024.0;
    }
    std::fclose(f);
  }
  return mb;
}

HostTicks host_ticks() {
  HostTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  for (int i = 0; i < got; ++i) t.total += v[i];
  if (got == 8) t.steal = v[7];
  return t;
}

double steal_frac(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0.0;
  return static_cast<double>(to.steal - from.steal) / static_cast<double>(to.total - from.total);
}

void CpuAttribution::assign_new(const std::set<pid_t>& tids, const std::string& cls) {
  for (const pid_t t : tids) class_of_.emplace(t, cls);
}

void CpuAttribution::begin() {
  start_ns_.clear();
  for (const pid_t t : list_threads()) start_ns_[t] = thread_cpu_ns(t);
  process_start_ns_ = process_cpu_ns();
}

void CpuAttribution::end() {
  const std::uint64_t proc_end = process_cpu_ns();
  class_s_.clear();
  for (const pid_t t : list_threads()) {
    const std::uint64_t now = thread_cpu_ns(t);
    const auto s = start_ns_.find(t);
    const std::uint64_t from = s == start_ns_.end() ? 0 : s->second;
    const auto c = class_of_.find(t);
    const std::string& cls = c == class_of_.end() ? std::string("other") : c->second;
    class_s_[cls] += now > from ? static_cast<double>(now - from) * 1e-9 : 0.0;
  }
  process_s_ = static_cast<double>(proc_end - process_start_ns_) * 1e-9;
}

double CpuAttribution::seconds(const std::string& cls) const {
  const auto it = class_s_.find(cls);
  return it == class_s_.end() ? 0.0 : it->second;
}

double CpuAttribution::attributed_seconds() const {
  double sum = 0;
  for (const auto& [cls, s] : class_s_) sum += s;
  return sum;
}

double CpuAttribution::unattributed_frac() const {
  if (process_s_ <= 0) return 0.0;
  return std::fabs(attributed_seconds() - process_s_) / process_s_;
}

bool CpuAttribution::check(double tolerance) const {
  return std::fabs(attributed_seconds() - process_s_) <= tolerance * process_s_ + 0.02;
}

}  // namespace commitbench
