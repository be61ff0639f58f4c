#include "load/mix.hpp"

#include <stdexcept>

#include "core/parameters.hpp"
#include "io/loader.hpp"

namespace rat::load {

Mix Mix::from_fixture_dir(const std::filesystem::path& dir) {
  Mix mix;
  for (const auto& path : io::list_worksheets(dir))
    mix.add(path.filename().string(), io::read_worksheet_text(path));
  if (mix.size() == 0)
    throw std::runtime_error("Mix: no *.rat worksheets in " + dir.string());
  return mix;
}

void Mix::add(std::string name, std::string worksheet) {
  entries_.push_back(Entry{std::move(name), std::move(worksheet)});
}

std::string Mix::next(util::Rng& rng, double duplicate_ratio) {
  if (entries_.empty()) throw std::runtime_error("Mix: empty");
  if (duplicate_ratio < 0.0) duplicate_ratio = 0.0;
  if (duplicate_ratio > 1.0) duplicate_ratio = 1.0;
  // Draw the duplicate/unique coin before picking the base so the base
  // choice consumes the same number of Rng values either way.
  const bool duplicate = rng.uniform() < duplicate_ratio;
  const Entry& base = entries_[rng.uniform_index(entries_.size())];
  if (duplicate) return base.worksheet;
  return unique_variant(base);
}

std::string Mix::unique_variant(const Entry& base) {
  const std::uint64_t seq = ++variant_seq_;
  try {
    // Perturb tsoft_sec by a counter-scaled relative nudge far below any
    // physically meaningful digit, then re-serialize: the canonical text
    // (and so its rat.fp.v1 fingerprint) is unique, but the worksheet
    // still parses and evaluates like the base.
    core::RatInputs inputs = core::RatInputs::parse(base.worksheet);
    inputs.software.tsoft_sec *=
        1.0 + 1e-9 * static_cast<double>(1 + seq % 1000000);
    inputs.name += "-v" + std::to_string(seq);
    return inputs.serialize();
  } catch (const std::exception&) {
    // Unparseable base (deliberately broken fixture): a trailing comment
    // keeps the text unique without changing the diagnostic it produces.
    return base.worksheet + "\n# variant " + std::to_string(seq) + "\n";
  }
}

}  // namespace rat::load
