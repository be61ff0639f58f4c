#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace rat::util {

double parse_finite(std::string_view text, std::string_view flag) {
  std::string_view t = text;
  if (!t.empty() && t.front() == '+') t.remove_prefix(1);  // from_chars: no '+'
  double x = 0.0;
  const auto r = std::from_chars(t.data(), t.data() + t.size(), x);
  const char* problem = nullptr;
  if (r.ec == std::errc::result_out_of_range)
    problem = " is out of range: ";
  else if (r.ec != std::errc{} || r.ptr != t.data() + t.size())
    problem = " is not a number: ";
  else if (!std::isfinite(x))
    problem = " is not finite: ";
  if (problem)
    throw std::invalid_argument("Cli: " + std::string(flag) + problem +
                                std::string(text));
  return x;
}

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos)
        values_[arg] = "true";
      else
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Cli::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key,
                        const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  return v ? parse_finite(*v, "--" + key) : fallback;
}

long long Cli::get_int(const std::string& key, long long fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument("Cli: --" + key + " is not an integer: " + *v);
  return x;
}

std::size_t Cli::get_size_t(const std::string& key, std::size_t fallback,
                            std::size_t min_value,
                            std::size_t max_value) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (v->empty() || v->front() == '-' || v->front() == '+')
    throw std::invalid_argument("Cli: --" + key +
                                " is not an unsigned integer: " + *v);
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
      x > std::numeric_limits<std::size_t>::max())
    throw std::invalid_argument("Cli: --" + key +
                                " is not an unsigned integer: " + *v);
  if (x < min_value || x > max_value)
    throw std::invalid_argument(
        "Cli: --" + key + "=" + *v + " outside [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  return static_cast<std::size_t>(x);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("Cli: --" + key + " is not a boolean: " + *v);
}

void Cli::require_known(std::initializer_list<std::string_view> known) const {
  for (const auto& [key, _] : values_)
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw std::invalid_argument("unknown flag --" + key);
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace rat::util
