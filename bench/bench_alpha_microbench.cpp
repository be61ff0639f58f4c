// Reproduces the paper's §4.2 alpha-derivation workflow: microbenchmark
// transfer sweeps on both simulated platforms, tabulating alpha(size,
// direction) against the documented maximum, and the probe-size derivation
// of Table 2's alpha_write = 0.37 / alpha_read = 0.16 at 2 KB.
#include <cstdio>

#include "rcsim/microbench.hpp"
#include "rcsim/platform.hpp"

namespace {

using namespace rat;

void print_report() {
  for (const auto& platform :
       {rcsim::nallatech_h101(), rcsim::xd1000()}) {
    rcsim::Microbench mb(platform.link);
    std::printf("\n==== alpha sweep: %s (documented %.0f MB/s) ====\n%s",
                platform.link.name().c_str(),
                platform.link.documented_bw() / 1e6,
                rcsim::Microbench::to_table(mb.sweep_default())
                    .to_ascii()
                    .c_str());
  }
  rcsim::Microbench mb(rcsim::nallatech_pcix_link());
  const auto a = mb.derive_alphas(2048);
  std::printf(
      "\nTable 2 derivation (probe at the 1-D PDF's 2 KB block size):\n"
      "  alpha_write = %.2f (paper: 0.37)\n"
      "  alpha_read  = %.2f (paper: 0.16)\n"
      "The tabulated alphas can be reused for future RAT analyses on this\n"
      "platform, as the paper prescribes.\n",
      a.alpha_write, a.alpha_read);
}

}  // namespace

int main() {
  print_report();
  return 0;
}
