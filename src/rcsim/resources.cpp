#include "rcsim/resources.hpp"

#include <algorithm>
#include <stdexcept>

namespace rat::rcsim {

ResourceUsage& ResourceUsage::operator+=(const ResourceUsage& other) {
  dsp += other.dsp;
  bram += other.bram;
  logic += other.logic;
  return *this;
}

ResourceUsage operator*(ResourceUsage u, std::int64_t n) {
  u.dsp *= n;
  u.bram *= n;
  u.logic *= n;
  return u;
}

double UtilizationReport::max_fraction() const {
  return std::max({dsp_fraction, bram_fraction, logic_fraction});
}

std::string UtilizationReport::binding_resource() const {
  const double m = max_fraction();
  if (m == dsp_fraction) return "dsp";
  if (m == bram_fraction) return "bram";
  return "logic";
}

UtilizationReport utilization(const ResourceUsage& used,
                              const DeviceResources& available) {
  auto frac = [](std::int64_t u, std::int64_t a) {
    if (a <= 0) return u > 0 ? 1.0 : 0.0;
    return static_cast<double>(u) / static_cast<double>(a);
  };
  return UtilizationReport{frac(used.dsp, available.dsp),
                           frac(used.bram, available.bram),
                           frac(used.logic, available.logic)};
}

ResourceTracker::ResourceTracker(DeviceResources available,
                                 double practical_fill_limit)
    : available_(available), fill_limit_(practical_fill_limit) {
  if (!(0.0 < fill_limit_ && fill_limit_ <= 1.0))
    throw std::invalid_argument("ResourceTracker: fill limit out of (0,1]");
}

const ResourceUsage& ResourceTracker::add(const std::string& component,
                                          const ResourceUsage& usage) {
  if (usage.dsp < 0 || usage.bram < 0 || usage.logic < 0)
    throw std::invalid_argument("ResourceTracker: negative usage");
  components_.push_back(Component{component, usage});
  total_ += usage;
  return total_;
}

UtilizationReport ResourceTracker::report() const {
  return utilization(total_, available_);
}

bool ResourceTracker::feasible() const {
  const auto rep = report();
  // DSP and BRAM are discrete dedicated units: using all of them is fine.
  // Logic is where routing strain bites, hence the practical fill limit.
  return rep.dsp_fraction <= 1.0 && rep.bram_fraction <= 1.0 &&
         rep.logic_fraction <= fill_limit_;
}

}  // namespace rat::rcsim
