#include "apps/case_study.hpp"

#include <cstdint>
#include <stdexcept>

#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf2d.hpp"
#include "apps/workload.hpp"
#include "core/units.hpp"

namespace rat::apps {
namespace {

// Table 9's particle box: the numbers EXPERIMENTS.md quotes come from it.
constexpr std::uint64_t kMdBoxSeed = 2009;

template <class Design>
CaseStudy on_h101(const Design& d) {
  return {d.rat_inputs(), d.workload(), rcsim::nallatech_h101(),
          core::mhz(150), d.resource_items()};
}

}  // namespace

CaseStudy case_study(CaseStudyKind kind) {
  switch (kind) {
    case CaseStudyKind::kPdf1d:
      return on_h101(Pdf1dDesign{});
    case CaseStudyKind::kPdf2d:
      return on_h101(Pdf2dDesign{});
    case CaseStudyKind::kMd: {
      const MdDesign d;
      const std::size_t n = d.rat_inputs().dataset.elements_in;
      static const std::uint64_t cycles =
          d.cycles_for(particle_box(n, 1.0, 1.0, kMdBoxSeed));
      return {d.rat_inputs(), d.workload(cycles, n), rcsim::xd1000(),
              core::mhz(100), d.resource_items()};
    }
  }
  throw std::invalid_argument("case_study: unknown kind");
}

}  // namespace rat::apps
