#include "common/env.hpp"

#include <cstdlib>
#include <cstring>

namespace fedhisyn {

bool full_scale_enabled() {
  const char* value = std::getenv("FEDHISYN_FULL");
  return value != nullptr && value[0] == '1';
}

long env_long(const std::string& name, long fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value) return fallback;
  return parsed;
}

double env_double(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value) return fallback;
  return parsed;
}

bool quiet_from_env() {
  const char* value = std::getenv("FEDHISYN_QUIET");
  if (value == nullptr || value[0] == '\0') return false;
  return !(std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
           std::strcmp(value, "false") == 0);
}

std::string gemm_kernel_from_env() {
  const char* value = std::getenv("FEDHISYN_GEMM_KERNEL");
  if (value == nullptr || value[0] == '\0') return "auto";
  return value;
}

}  // namespace fedhisyn
