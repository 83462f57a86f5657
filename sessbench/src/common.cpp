#include "common.hpp"

#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace sessbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
  return snapstab::splitmix64(state);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0)
      kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace sessbench
