#include "apps/strmatch.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace rat::apps {

void StrMatchConfig::validate() const {
  if (patterns.empty())
    throw std::invalid_argument("StrMatchConfig: no patterns");
  for (const auto& p : patterns)
    if (p.empty()) throw std::invalid_argument("StrMatchConfig: empty pattern");
  if (chunk == 0) throw std::invalid_argument("StrMatchConfig: chunk == 0");
}

std::size_t StrMatchConfig::longest_pattern() const {
  std::size_t n = 0;
  for (const auto& p : patterns) n = std::max(n, p.size());
  return n;
}

std::size_t StrMatchConfig::total_pattern_chars() const {
  std::size_t n = 0;
  for (const auto& p : patterns) n += p.size();
  return n;
}

namespace {

std::vector<std::uint64_t> naive_impl(std::string_view text,
                                      const StrMatchConfig& cfg,
                                      OpCounter* ops) {
  cfg.validate();
  std::vector<std::uint64_t> counts(cfg.patterns.size(), 0);
  for (std::size_t k = 0; k < cfg.patterns.size(); ++k) {
    const std::string& p = cfg.patterns[k];
    if (p.size() > text.size()) continue;
    for (std::size_t i = 0; i + p.size() <= text.size(); ++i) {
      bool match = true;
      for (std::size_t j = 0; j < p.size(); ++j) {
        if (ops) ++ops->compares;
        if (text[i + j] != p[j]) {
          match = false;
          break;
        }
      }
      if (match) {
        ++counts[k];
        if (ops) ++ops->adds;
      }
    }
  }
  return counts;
}

}  // namespace

std::vector<std::uint64_t> count_matches_naive(std::string_view text,
                                               const StrMatchConfig& cfg) {
  return naive_impl(text, cfg, nullptr);
}

std::vector<std::uint64_t> count_matches_naive_counted(
    std::string_view text, const StrMatchConfig& cfg, OpCounter& ops) {
  return naive_impl(text, cfg, &ops);
}

std::vector<std::uint64_t> count_matches_shift_or(std::string_view text,
                                                  const StrMatchConfig& cfg) {
  cfg.validate();
  std::vector<std::uint64_t> counts(cfg.patterns.size(), 0);
  for (std::size_t k = 0; k < cfg.patterns.size(); ++k) {
    const std::string& p = cfg.patterns[k];
    if (p.size() > 64)
      throw std::invalid_argument(
          "count_matches_shift_or: pattern longer than 64 characters");
    // Character masks: bit j clear when pattern[j] == c.
    std::uint64_t masks[256];
    std::fill(std::begin(masks), std::end(masks), ~std::uint64_t{0});
    for (std::size_t j = 0; j < p.size(); ++j)
      masks[static_cast<unsigned char>(p[j])] &= ~(std::uint64_t{1} << j);
    const std::uint64_t accept = std::uint64_t{1} << (p.size() - 1);
    std::uint64_t state = ~std::uint64_t{0};
    for (char c : text) {
      state = (state << 1) | masks[static_cast<unsigned char>(c)];
      if ((state & accept) == 0) ++counts[k];
    }
  }
  return counts;
}

AhoCorasick::AhoCorasick(const StrMatchConfig& cfg)
    : n_patterns_(cfg.patterns.size()) {
  cfg.validate();
  // Trie construction (state 0 = root).
  auto add_state = [this] {
    next_.emplace_back();
    next_.back().fill(-1);
    output_.emplace_back();
    return static_cast<std::int32_t>(next_.size() - 1);
  };
  add_state();
  for (std::uint32_t id = 0; id < cfg.patterns.size(); ++id) {
    std::int32_t s = 0;
    for (char ch : cfg.patterns[id]) {
      const auto c = static_cast<unsigned char>(ch);
      if (next_[static_cast<std::size_t>(s)][c] < 0)
        next_[static_cast<std::size_t>(s)][c] = add_state();
      s = next_[static_cast<std::size_t>(s)][c];
    }
    output_[static_cast<std::size_t>(s)].push_back(id);
  }
  // BFS failure links, folded directly into the transition table (so the
  // scan is one table lookup per character — automaton form).
  std::vector<std::int32_t> fail(next_.size(), 0);
  std::vector<std::int32_t> queue;
  for (int c = 0; c < kAlphabet; ++c) {
    auto& t = next_[0][static_cast<std::size_t>(c)];
    if (t < 0) {
      t = 0;
    } else {
      fail[static_cast<std::size_t>(t)] = 0;
      queue.push_back(t);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t s = queue[head];
    const std::int32_t f = fail[static_cast<std::size_t>(s)];
    // Inherit the failure state's outputs (suffix matches).
    for (std::uint32_t id : output_[static_cast<std::size_t>(f)])
      output_[static_cast<std::size_t>(s)].push_back(id);
    for (int c = 0; c < kAlphabet; ++c) {
      auto& t = next_[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)];
      const std::int32_t via_fail =
          next_[static_cast<std::size_t>(f)][static_cast<std::size_t>(c)];
      if (t < 0) {
        t = via_fail;
      } else {
        fail[static_cast<std::size_t>(t)] = via_fail;
        queue.push_back(t);
      }
    }
  }
}

std::vector<std::uint64_t> AhoCorasick::count_matches(
    std::string_view text) const {
  std::vector<std::uint64_t> counts(n_patterns_, 0);
  std::int32_t s = 0;
  for (char ch : text) {
    s = next_[static_cast<std::size_t>(s)]
             [static_cast<unsigned char>(ch)];
    for (std::uint32_t id : output_[static_cast<std::size_t>(s)])
      ++counts[id];
  }
  return counts;
}

std::string random_text(std::size_t n, const StrMatchConfig& cfg,
                        double plant_rate, std::uint64_t seed,
                        char alphabet_lo, char alphabet_hi) {
  cfg.validate();
  if (!(0.0 <= plant_rate && plant_rate <= 1.0))
    throw std::invalid_argument("random_text: plant_rate outside [0,1]");
  if (alphabet_lo > alphabet_hi)
    throw std::invalid_argument("random_text: empty alphabet");
  util::Rng rng(seed);
  const auto span =
      static_cast<std::uint64_t>(alphabet_hi - alphabet_lo) + 1;
  std::string text;
  text.reserve(n);
  while (text.size() < n) {
    if (plant_rate > 0.0 && rng.uniform() < plant_rate) {
      const auto& p = cfg.patterns[rng.uniform_index(cfg.patterns.size())];
      text.append(p, 0, std::min(p.size(), n - text.size()));
    } else {
      text.push_back(
          static_cast<char>(alphabet_lo + rng.uniform_index(span)));
    }
  }
  return text;
}

StrMatchDesign::StrMatchDesign(StrMatchConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
}

std::vector<std::uint64_t> StrMatchDesign::count_matches(
    std::string_view text) const {
  // Systolic semantics: each lane holds a shift register of the last
  // |pattern| characters; a match fires when the whole window equals the
  // pattern — i.e. at position i the window covers [i-|p|+1, i], so this
  // counts exactly what the naive scan counts.
  std::vector<std::uint64_t> counts(cfg_.patterns.size(), 0);
  for (std::size_t k = 0; k < cfg_.patterns.size(); ++k) {
    const std::string& p = cfg_.patterns[k];
    // match_depth[j]: the last j+1 characters equal the pattern's first
    // j+1 characters — a chain of per-stage comparators, as in hardware.
    std::vector<bool> chain(p.size(), false);
    for (char c : text) {
      for (std::size_t j = p.size(); j-- > 0;) {
        const bool prev = j == 0 ? true : chain[j - 1];
        chain[j] = prev && (c == p[j]);
      }
      if (chain.back()) ++counts[k];
    }
  }
  return counts;
}

std::uint64_t StrMatchDesign::cycles_per_iteration() const {
  return cfg_.chunk + cfg_.longest_pattern();
}

rcsim::IterationIo StrMatchDesign::io() const {
  rcsim::IterationIo io;
  io.input_chunks_bytes = {cfg_.chunk};  // one byte per character
  io.output_chunks_bytes = {cfg_.patterns.size() * 8};
  return io;
}

std::vector<core::ResourceItem> StrMatchDesign::resource_items() const {
  std::vector<core::ResourceItem> items;
  // One comparator + flip-flop + AND per pattern character; ~2 logic
  // elements each, plus per-lane counter logic.
  items.push_back(core::ResourceItem{
      "comparator chains", 0, 18,
      /*buffer_bytes=*/0,
      static_cast<std::int64_t>(2 * cfg_.total_pattern_chars() +
                                24 * cfg_.patterns.size()),
      1});
  items.push_back(core::ResourceItem{
      "text buffers (double)", 0, 18,
      static_cast<std::int64_t>(2 * cfg_.chunk), 300, 1});
  items.push_back(core::ResourceItem{"vendor wrapper", 0, 18, 64 * 1024,
                                     2400, 1});
  return items;
}

core::RatInputs StrMatchDesign::rat_inputs(
    double tsoft_sec, std::size_t n_iterations,
    const core::CommunicationParams& comm) const {
  core::RatInputs in;
  in.name = "string matching (systolic array)";
  in.dataset.elements_in = cfg_.chunk;
  in.dataset.elements_out = cfg_.patterns.size() * 8;  // counter bytes
  in.dataset.bytes_per_element = 1.0;
  in.comm = comm;
  in.comp.ops_per_element =
      static_cast<double>(cfg_.total_pattern_chars());
  in.comp.throughput_ops_per_cycle =
      static_cast<double>(cfg_.total_pattern_chars());
  in.comp.fclock_hz = {75e6, 100e6, 150e6};
  in.software.tsoft_sec = tsoft_sec;
  in.software.n_iterations = n_iterations;
  return in;
}

}  // namespace rat::apps
