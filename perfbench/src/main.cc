// perfbench — runs one named benchmark workload from a seed, checks its
// outputs, and prints two lines on stdout:
//
//   DETAIL {sample counts and other run details}
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
//   perfbench --workload=criterion|update_stream|serve --seed=N
//             --seconds=S [--trace=0|1] [--ops=N] [--trace-out=PATH]
//             [--rtpd=PATH] [--scratch=DIR]
//
// perfbench/run.py builds this binary, adds host context, and reshapes
// the RESULT line into the benchmark's output contract.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "serve/json.h"

namespace {

bool FlagValue(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* detail) {
  std::fprintf(stderr, "perfbench: %s\n", detail);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (FlagValue(argv[i], "--ops", &v)) {
      options.max_ops = std::strtoll(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--trace-out", &v)) {
      options.trace_out = v;
    } else if (FlagValue(argv[i], "--rtpd", &v)) {
      options.rtpd_path = v;
    } else if (FlagValue(argv[i], "--scratch", &v)) {
      options.scratch_dir = v;
    } else {
      return Usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (options.seconds <= 0 && options.max_ops <= 0) {
    return Usage("--seconds or --ops must be positive");
  }

  perfbench::Result result;
  bool ran = false;
  if (options.workload == "criterion") {
    ran = perfbench::RunCriterion(options, &result);
  } else if (options.workload == "update_stream") {
    ran = perfbench::RunUpdateStream(options, &result);
  } else if (options.workload == "serve") {
    ran = perfbench::RunServe(options, &result);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!ran) return 1;

  using rtp::serve::JsonValue;
  JsonValue metrics = JsonValue::Object();
  for (const perfbench::Metric& m : result.metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Add("value", JsonValue::Number(m.value));
    entry.Add("unit", JsonValue::String(m.unit));
    metrics.Add(m.name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Add("correct", JsonValue::Bool(result.failed == 0 &&
                                     result.checks_passed &&
                                     result.attempted > 0));
  out.Add("attempted", JsonValue::Int(result.attempted));
  out.Add("failed", JsonValue::Int(result.failed));
  out.Add("metrics", std::move(metrics));
  std::printf("DETAIL %s\n", result.detail_json.c_str());
  std::printf("RESULT %s\n", out.Serialize().c_str());
  return 0;
}
