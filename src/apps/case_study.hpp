// The paper's three case studies as they were measured (§4-5): each
// design's worksheet, its run on the platform it was built for, the clock
// of the Actual column of Tables 3, 6 and 9, and its resource inventory
// (Tables 4, 7 and 10). Programs and tests that reproduce those tables
// start here rather than assembling the pieces themselves.
#pragma once

#include <vector>

#include "core/parameters.hpp"
#include "core/resources.hpp"
#include "rcsim/executor.hpp"
#include "rcsim/platform.hpp"

namespace rat::apps {

enum class CaseStudyKind { kPdf1d, kPdf2d, kMd };

struct CaseStudy {
  core::RatInputs inputs;  ///< the Table 2/5/8 worksheet
  rcsim::Workload workload;
  rcsim::Platform platform;
  double actual_clock_hz = 0.0;
  std::vector<core::ResourceItem> resource_items;
};

/// The 1-D PDF (Pdf1dDesign) and the 2-D PDF (Pdf2dDesign) run on the
/// Nallatech H101 at 150 MHz. MD (MdDesign) runs on the XD1000 at
/// 100 MHz over one particle box: the worksheet's 16,384 molecules, box
/// length and temperature 1, seed 2009. That box's cycle count walks
/// every molecule pair, so it is computed once per process.
CaseStudy case_study(CaseStudyKind kind);

}  // namespace rat::apps
