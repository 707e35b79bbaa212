#include "core/config.hpp"

#include <cctype>
#include <string>

namespace rla {

std::string_view algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::Standard:
      return "standard";
    case Algorithm::Strassen:
      return "strassen";
    case Algorithm::Winograd:
      return "winograd";
  }
  return "?";
}

std::string_view kernel_name(KernelKind k) noexcept {
  switch (k) {
    case KernelKind::Naive:
      return "naive";
    case KernelKind::TiledUnrolled:
      return "tiled-unrolled";
    case KernelKind::Blocked4x4:
      return "blocked4x4";
    case KernelKind::Simd:
      return "simd";
  }
  return "?";
}

bool parse_algorithm(std::string_view text, Algorithm& out) noexcept {
  std::string key;
  for (char ch : text) {
    key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
  }
  if (key == "standard" || key == "std") {
    out = Algorithm::Standard;
  } else if (key == "strassen") {
    out = Algorithm::Strassen;
  } else if (key == "winograd") {
    out = Algorithm::Winograd;
  } else {
    return false;
  }
  return true;
}

}  // namespace rla
