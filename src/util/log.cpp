#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>  // pfm-lint: allow(raw-mutex)

namespace pfm {

namespace {

LogLevel parse_env() {
  // The one environment variable the library reads: an operator's log
  // threshold, which changes what is printed but never what the system does.
  const char* e = std::getenv("PFM_LOG");  // pfm-lint: allow(getenv)
  if (e == nullptr) return LogLevel::kWarn;
  if (std::strcmp(e, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(e, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(e, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(e, "error") == 0) return LogLevel::kError;
  if (std::strcmp(e, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

std::atomic<int>& threshold_storage() {
  static std::atomic<int> t{static_cast<int>(parse_env())};
  return t;
}

const char* level_name(LogLevel lv) {
  switch (lv) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_threshold() {
  return static_cast<LogLevel>(threshold_storage().load(std::memory_order_relaxed));
}

void set_log_threshold(LogLevel lv) {
  threshold_storage().store(static_cast<int>(lv), std::memory_order_relaxed);
}

void log_line(LogLevel lv, const std::string& msg) {
  // Deliberately a raw std::mutex, not pfm::Mutex: logging must work from
  // inside lockdep/PFM_CHECK failure paths without re-entering lockdep.
  static std::mutex mu;                     // pfm-lint: allow(raw-mutex)
  std::lock_guard<std::mutex> lock(mu);     // pfm-lint: allow(raw-mutex)
  std::fprintf(stderr, "[pfm %s] %s\n", level_name(lv), msg.c_str());
}

}  // namespace pfm
