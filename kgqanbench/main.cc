// KGQAn benchmark: runs one named workload with a seed, checks every
// answer, and prints one JSON result line (end-to-end metrics untraced,
// per-layer metrics with --trace 1).
//
// Usage: kgqan_bench --workload <mag-cold|dblp-cold|lcquad-serve>
//                    --seed <n> --seconds <s> --trace <0|1>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  using kgqan::benchgen::BenchmarkId;
  kgqanbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (args.workload == "mag-cold") {
    return kgqanbench::RunCold(args, BenchmarkId::kMag, 0.3);
  }
  if (args.workload == "dblp-cold") {
    return kgqanbench::RunCold(args, BenchmarkId::kDblp, 1.0);
  }
  if (args.workload == "lcquad-serve") return kgqanbench::RunServe(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
