// Reproduces paper Tables 4, 7 and 10: a-priori resource utilization of
// the three case-study designs on their target devices, via the vendor
// DSP/BRAM cost models.
#include <cstdio>

#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf2d.hpp"
#include "core/resources.hpp"
#include "rcsim/device.hpp"

namespace {

using namespace rat;

void print_one(const char* title, const std::vector<core::ResourceItem>& items,
               const rcsim::Device& device) {
  const auto r = core::run_resource_test(items, device);
  std::printf("==== %s (%s) ====\n%s", title, device.name.c_str(),
              r.to_table(device).to_ascii().c_str());
  std::printf("feasible: %s, binding resource: %s\n\n",
              r.feasible ? "yes" : "NO",
              r.utilization.binding_resource().c_str());
}

void print_report() {
  std::printf("\n");
  print_one("Table 4: 1-D PDF resource usage",
            apps::Pdf1dDesign().resource_items(), rcsim::virtex4_lx100());
  print_one("Table 7: 2-D PDF resource usage",
            apps::Pdf2dDesign().resource_items(), rcsim::virtex4_lx100());
  print_one("Table 10: MD resource usage",
            apps::MdDesign().resource_items(), rcsim::stratix2_ep2s180());
  std::printf(
      "Paper shape: PDF designs leave most of the LX100 free (headroom for\n"
      "more parallel kernels); the MD design consumes a large share of the\n"
      "EP2S180's DSPs and combinatorial logic.\n");
}

}  // namespace

int main() {
  print_report();
  return 0;
}
