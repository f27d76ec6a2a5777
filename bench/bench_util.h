#ifndef CLOUDVIEWS_BENCH_BENCH_UTIL_H_
#define CLOUDVIEWS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json_writer.h"

namespace cloudviews {
namespace bench_util {

// Parses "--scale=<double>" from argv (or CLOUDVIEWS_BENCH_SCALE from the
// environment); the default keeps every figure bench comfortably fast while
// preserving the workload's distributional shape.
inline double ParseScale(int argc, char** argv, double default_scale) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      return std::atof(argv[i] + 8);
    }
  }
  const char* env = std::getenv("CLOUDVIEWS_BENCH_SCALE");
  if (env != nullptr && env[0] != '\0') return std::atof(env);
  return default_scale;
}

// Parses "--days=<int>" similarly.
inline int ParseDays(int argc, char** argv, int default_days) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--days=", 7) == 0) {
      return std::atoi(argv[i] + 7);
    }
  }
  return default_days;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================="
              "=================\n");
}

// Machine-readable bench output: accumulates named metrics and prints one
// greppable `JSON {...}` line. All benches share this emitter (built on
// obs::JsonWriter) so downstream tooling parses every bench the same way.
// The CPU's "model name" from /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t value = line.find_first_not_of(" \t:", line.find(':'));
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

class JsonReport {
 public:
  // Every report names the host it ran on, so tools/bench_guard.py can tell
  // when a baseline came from different hardware.
  explicit JsonReport(const char* bench_name) {
    writer_.BeginObject();
    writer_.Field("bench", bench_name);
    writer_.Field("nproc",
                  static_cast<int64_t>(std::thread::hardware_concurrency()));
    writer_.Field("cpu_model", CpuModel());
  }

  JsonReport& Metric(const char* name, double value) {
    writer_.Field(name, value);
    return *this;
  }
  JsonReport& Metric(const char* name, int64_t value) {
    writer_.Field(name, value);
    return *this;
  }
  JsonReport& Metric(const char* name, const std::string& value) {
    writer_.Field(name, value);
    return *this;
  }

  // Prints the report; call once, at the end of the bench.
  void Print() {
    writer_.EndObject();
    std::printf("JSON %s\n", writer_.str().c_str());
  }

 private:
  obs::JsonWriter writer_;
};

}  // namespace bench_util
}  // namespace cloudviews

#endif  // CLOUDVIEWS_BENCH_BENCH_UTIL_H_
