#include "resilience/policy.hpp"

namespace exasim::resilience {

std::string to_string(ErrorPolicy p) {
  switch (p) {
    case ErrorPolicy::kFatal: return "errors-are-fatal";
    case ErrorPolicy::kReturn: return "errors-return";
    case ErrorPolicy::kUser: return "user-handler";
  }
  return "?";
}

}  // namespace exasim::resilience
