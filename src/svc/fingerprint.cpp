#include "svc/fingerprint.hpp"

#include <cstdio>
#include <sstream>

#include "io/json.hpp"
#include "store/checksum.hpp"

namespace rat::svc {

std::string canonical_text(const core::RatInputs& in) {
  std::ostringstream os;
  os << "rat.fp.v1\n";
  os << "name=" << in.name << '\n';
  os << "elements_in=" << in.dataset.elements_in << '\n';
  os << "elements_out=" << in.dataset.elements_out << '\n';
  os << "bytes_per_element=" << io::json_number(in.dataset.bytes_per_element)
     << '\n';
  os << "ideal_bw_bytes_per_sec="
     << io::json_number(in.comm.ideal_bw_bytes_per_sec) << '\n';
  os << "alpha_write=" << io::json_number(in.comm.alpha_write) << '\n';
  os << "alpha_read=" << io::json_number(in.comm.alpha_read) << '\n';
  os << "ops_per_element=" << io::json_number(in.comp.ops_per_element)
     << '\n';
  os << "throughput_ops_per_cycle="
     << io::json_number(in.comp.throughput_ops_per_cycle) << '\n';
  os << "fclock_hz=";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i) {
    if (i) os << ',';
    os << io::json_number(in.comp.fclock_hz[i]);
  }
  os << '\n';
  os << "tsoft_sec=" << io::json_number(in.software.tsoft_sec) << '\n';
  os << "n_iterations=" << in.software.n_iterations << '\n';
  return os.str();
}

std::uint64_t fnv1a64(const std::string& text) {
  return store::fnv1a64(text);
}

std::uint64_t fingerprint(const core::RatInputs& inputs) {
  return fnv1a64(canonical_text(inputs));
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace rat::svc
