#include "core/power.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace rat::core {

PowerEstimate estimate_power(const rcsim::ResourceUsage& usage,
                             const ThroughputPrediction& prediction,
                             double tsoft_sec, const PowerModel& fpga,
                             const HostPowerModel& host) {
  util::require_positive(tsoft_sec, "estimate_power: non-positive tsoft");
  util::require_positive(prediction.t_rc_sb_sec,
                         "estimate_power: non-positive tRC");

  const double clock_scale = prediction.fclock_hz / 100e6;
  PowerEstimate e;
  // Fabric dynamic power scales with clock; the I/O interface burns power
  // only for the communication fraction of the run.
  e.fpga_watts =
      fpga.static_watts +
      clock_scale *
          (static_cast<double>(usage.dsp) * fpga.watts_per_dsp_100mhz +
           static_cast<double>(usage.bram) * fpga.watts_per_bram_100mhz +
           static_cast<double>(usage.logic) / 1000.0 *
               fpga.watts_per_klogic_100mhz) +
      fpga.io_watts * prediction.util_comm_sb;

  e.fpga_energy_joules = e.fpga_watts * prediction.t_rc_sb_sec;
  e.host_energy_joules = host.busy_watts * tsoft_sec;
  e.fpga_system_energy_joules =
      e.fpga_energy_joules + host.idle_watts * prediction.t_rc_sb_sec;
  e.energy_ratio = e.host_energy_joules / e.fpga_system_energy_joules;
  return e;
}

double break_even_speedup_for_energy(double fpga_system_watts,
                                     const HostPowerModel& host) {
  const char* const what = "break_even_speedup_for_energy: non-positive power";
  util::require_positive(fpga_system_watts, what);
  util::require_positive(host.busy_watts, what);
  // Energy parity: host.busy * tsoft == fpga_system * tRC
  //   => speedup = tsoft / tRC = fpga_system / host.busy.
  return fpga_system_watts / host.busy_watts;
}

}  // namespace rat::core
