#include "common/env.hpp"

#include <cstdlib>

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

}  // namespace fedhisyn
