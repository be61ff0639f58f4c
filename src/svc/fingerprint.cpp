#include "svc/fingerprint.hpp"

#include <cstdio>

#include "store/checksum.hpp"
#include "util/format.hpp"

namespace rat::svc {

namespace {

/// One "key=value" line; @p x takes io::json_number's spelling.
void append_line(std::string& out, const char* key, double x) {
  out += key;
  util::append_round_trip(out, x);
  out += '\n';
}

void append_line(std::string& out, const char* key, std::size_t n) {
  out += key;
  out += std::to_string(n);
  out += '\n';
}

}  // namespace

std::string canonical_text(const core::RatInputs& in) {
  std::string out;
  // The keys take 190 bytes; a number takes at most 24.
  out.reserve(190 + in.name.size() + 24 * (10 + in.comp.fclock_hz.size()));
  out += "rat.fp.v1\nname=";
  out += in.name;
  out += '\n';
  append_line(out, "elements_in=", in.dataset.elements_in);
  append_line(out, "elements_out=", in.dataset.elements_out);
  append_line(out, "bytes_per_element=", in.dataset.bytes_per_element);
  append_line(out, "ideal_bw_bytes_per_sec=", in.comm.ideal_bw_bytes_per_sec);
  append_line(out, "alpha_write=", in.comm.alpha_write);
  append_line(out, "alpha_read=", in.comm.alpha_read);
  append_line(out, "ops_per_element=", in.comp.ops_per_element);
  append_line(out, "throughput_ops_per_cycle=",
              in.comp.throughput_ops_per_cycle);
  out += "fclock_hz=";
  for (std::size_t i = 0; i < in.comp.fclock_hz.size(); ++i) {
    if (i) out += ',';
    util::append_round_trip(out, in.comp.fclock_hz[i]);
  }
  out += '\n';
  append_line(out, "tsoft_sec=", in.software.tsoft_sec);
  append_line(out, "n_iterations=", in.software.n_iterations);
  return out;
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
