// perfbench: runs one workload once and prints its metrics. Usually started
// by run.py (which builds it, enforces the deadline and formats the result);
// can be run by hand:
//   perfbench --workload kv_closed --seed 1 --seconds 10 --trace 0
//             --scratch_dir .bench_build/run
// Prints one line per metric, then the result as a JSON object on the last
// line. Exit code 0 when every output check passed, 1 otherwise, 2 on usage
// errors.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {kv_closed,tpcc_closed,kv_group_commit,kv_remote} "
               "--seed N --seconds S --trace {0,1} --scratch_dir DIR [--phase_file F]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
      if (value != "0" && value != "1") return Usage(argv[0]);
    } else if (flag == "--scratch_dir") {
      cfg.scratch_dir = value;
    } else if (flag == "--phase_file") {
      cfg.phase_file = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return Usage(argv[0]);
  }
  if (argc % 2 != 1 || !perfbench::KnownWorkload(cfg.workload) || cfg.seconds <= 0 ||
      cfg.seconds > 600 || cfg.scratch_dir.empty()) {
    return Usage(argv[0]);
  }
  std::filesystem::create_directories(cfg.scratch_dir);

  const perfbench::RunResult r = perfbench::RunWorkload(cfg);

  for (const auto& m : r.metrics) {
    std::printf("metric %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::string json = "{\"workload\": " + JsonString(cfg.workload) +
                     ", \"seed\": " + std::to_string(cfg.seed) +
                     ", \"trace\": " + (cfg.trace ? "1" : "0") + ", \"fingerprint\": {";
  for (size_t i = 0; i < r.fingerprint.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.fingerprint[i].first) + ": " +
            JsonString(r.fingerprint[i].second);
  }
  json += "}, \"correct\": " + std::string(r.correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"problems\": [";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.problems[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
