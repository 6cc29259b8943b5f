#include "core/forest_engine.hpp"

namespace drcshap {

std::string_view forest_engine_name(ForestEngine engine) {
  switch (engine) {
    case ForestEngine::kAuto:
      return "auto";
    case ForestEngine::kExact:
      return "exact";
    case ForestEngine::kCompiled:
      return "compiled";
  }
  return "auto";
}

}  // namespace drcshap
