#include "util/units.hpp"

#include <limits>
#include <sstream>

namespace firefly::util {

Dbm dbm_from_milliwatts(double mw) {
  if (mw <= 0.0) return Dbm{-std::numeric_limits<double>::infinity()};
  return Dbm{10.0 * std::log10(mw)};
}

std::string to_string(Dbm p) {
  std::ostringstream os;
  os << p.value << " dBm";
  return os.str();
}

}  // namespace firefly::util
