#include "rcsim/interconnect.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace rat::rcsim {

Link::Link(std::string name, double documented_bw, LinkDirection host_to_fpga,
           LinkDirection fpga_to_host)
    : name_(std::move(name)),
      documented_bw_(documented_bw),
      h2f_(host_to_fpga),
      f2h_(fpga_to_host) {
  util::require_positive(documented_bw_,
                         "Link: documented_bw must be positive");
  for (const auto* d : {&h2f_, &f2h_}) {
    util::require_positive(d->sustained_bw,
                           "Link: sustained_bw must be positive");
    if (!(d->fixed_overhead_sec >= 0.0 && d->rearm_sec >= 0.0))
      throw std::invalid_argument("Link: negative overhead");
  }
}

const LinkDirection& Link::direction(Direction dir) const {
  return dir == Direction::kHostToFpga ? h2f_ : f2h_;
}

double Link::single_transfer_time(std::size_t bytes, Direction dir) const {
  const auto& d = direction(dir);
  return d.fixed_overhead_sec + static_cast<double>(bytes) / d.sustained_bw;
}

double Link::app_transfer_time(std::size_t bytes, Direction dir) const {
  return single_transfer_time(bytes, dir) + direction(dir).rearm_sec;
}

double Link::measured_alpha(std::size_t bytes, Direction dir) const {
  if (bytes == 0) return 0.0;
  const double ideal = static_cast<double>(bytes) / documented_bw_;
  return ideal / single_transfer_time(bytes, dir);
}

void Link::set_jitter(double fraction) {
  if (!(0.0 <= fraction && fraction < 1.0))
    throw std::invalid_argument("Link: jitter fraction out of [0,1)");
  jitter_fraction_ = fraction;
}

double Link::app_transfer_time(std::size_t bytes, Direction dir,
                               util::Rng& rng) const {
  const double t = app_transfer_time(bytes, dir);
  if (jitter_fraction_ == 0.0) return t;
  return t * rng.uniform(1.0 - jitter_fraction_, 1.0 + jitter_fraction_);
}

Link nallatech_pcix_link() {
  // Calibration (see DESIGN.md): a 2048-byte isolated transfer must measure
  // alpha = 0.37 host->FPGA and 0.16 FPGA->host (Table 2), and in-app
  // per-transfer penalties must inflate the 1-D PDF's per-iteration
  // communication ~4-5x and the 2-D PDF's chunked read-back ~6x (§4.3, §5.1).
  return Link("Nallatech H101-PCIXM (133 MHz PCI-X)",
              /*documented_bw=*/1.0e9,
              /*host_to_fpga=*/
              LinkDirection{/*fixed_overhead_sec=*/2.61e-6,
                            /*sustained_bw=*/7.0e8,
                            /*rearm_sec=*/4.8e-6},
              /*fpga_to_host=*/
              LinkDirection{/*fixed_overhead_sec=*/9.87e-6,
                            /*sustained_bw=*/7.0e8,
                            /*rearm_sec=*/8.7e-6});
}

Link xd1000_ht_link() {
  // HyperTransport sustains more than the conservative documented 500 MB/s;
  // MD's measured communication (1.39E-3 s for 2 x 576 KB) implies an
  // effective ~855 MB/s with small per-transfer overheads.
  return Link("XtremeData XD1000 (HyperTransport)",
              /*documented_bw=*/5.0e8,
              /*host_to_fpga=*/
              LinkDirection{/*fixed_overhead_sec=*/2.0e-6,
                            /*sustained_bw=*/8.55e8,
                            /*rearm_sec=*/1.0e-6},
              /*fpga_to_host=*/
              LinkDirection{/*fixed_overhead_sec=*/2.0e-6,
                            /*sustained_bw=*/8.55e8,
                            /*rearm_sec=*/1.0e-6});
}

}  // namespace rat::rcsim
