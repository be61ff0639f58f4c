#include "rcsim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace rat::rcsim {

namespace {
bool is_comm(EventKind k) {
  return k == EventKind::kInputTransfer || k == EventKind::kOutputTransfer ||
         k == EventKind::kHostSync;
}
}  // namespace

void Timeline::add(Event e) {
  if (e.end_sec < e.start_sec)
    throw std::invalid_argument("Timeline: event ends before it starts");
  events_.push_back(e);
}

double Timeline::end_sec() const {
  double end = 0.0;
  for (const auto& e : events_) end = std::max(end, e.end_sec);
  return end;
}

double Timeline::comm_busy_sec() const {
  double t = 0.0;
  for (const auto& e : events_)
    if (e.kind == EventKind::kInputTransfer ||
        e.kind == EventKind::kOutputTransfer)
      t += e.duration();
  return t;
}

double Timeline::comp_busy_sec() const {
  double t = 0.0;
  for (const auto& e : events_)
    if (e.kind == EventKind::kCompute) t += e.duration();
  return t;
}

double Timeline::sync_busy_sec() const {
  double t = 0.0;
  for (const auto& e : events_)
    if (e.kind == EventKind::kHostSync) t += e.duration();
  return t;
}

bool Timeline::lanes_consistent() const {
  auto check_lane = [this](bool comm_lane) {
    std::vector<const Event*> lane;
    for (const auto& e : events_)
      if (is_comm(e.kind) == comm_lane) lane.push_back(&e);
    std::sort(lane.begin(), lane.end(), [](const Event* a, const Event* b) {
      return a->start_sec < b->start_sec;
    });
    constexpr double kSlack = 1e-12;
    for (std::size_t i = 1; i < lane.size(); ++i)
      if (lane[i]->start_sec < lane[i - 1]->end_sec - kSlack) return false;
    return true;
  };
  return check_lane(true) && check_lane(false);
}

std::string Timeline::to_chrome_trace() const {
  std::string out = "{\"traceEvents\":[";
  for (const auto& e : events_) {
    const char* name = "?";
    switch (e.kind) {
      case EventKind::kInputTransfer: name = "input transfer"; break;
      case EventKind::kOutputTransfer: name = "output transfer"; break;
      case EventKind::kCompute: name = "compute"; break;
      case EventKind::kHostSync: name = "host sync"; break;
    }
    if (&e != &events_.front()) out += ',';
    // tid 1 = bus lane, tid 2 = fabric lane; microsecond timestamps.
    out += "{\"name\":\"";
    out += name;
    out += " #" + std::to_string(e.iteration + 1);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += is_comm(e.kind) ? '1' : '2';
    out += ",\"ts\":";
    util::append_round_trip(out, e.start_sec * 1e6);
    out += ",\"dur\":";
    util::append_round_trip(out, e.duration() * 1e6);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Timeline::to_gantt(std::size_t width) const {
  if (events_.empty()) return "(empty timeline)\n";
  if (width < 10) width = 10;
  const double total = end_sec();
  if (total <= 0.0) return "(zero-length timeline)\n";

  auto render_lane = [&](bool comm_lane) {
    std::string row(width, ' ');
    for (const auto& e : events_) {
      if (is_comm(e.kind) != comm_lane) continue;
      auto col = [&](double t) {
        return std::min<std::size_t>(
            width - 1,
            static_cast<std::size_t>(std::floor(t / total *
                                                static_cast<double>(width))));
      };
      const std::size_t c0 = col(e.start_sec);
      const std::size_t c1 = std::max(c0, col(std::nextafter(e.end_sec, 0.0)));
      char fill = '?';
      switch (e.kind) {
        case EventKind::kInputTransfer: fill = 'R'; break;
        case EventKind::kOutputTransfer: fill = 'W'; break;
        case EventKind::kCompute: fill = 'C'; break;
        case EventKind::kHostSync: fill = 's'; break;
      }
      for (std::size_t c = c0; c <= c1; ++c) row[c] = fill;
      // Tag the block with its 1-based iteration number when it fits.
      const std::string tag = std::to_string(e.iteration + 1);
      if (c1 - c0 + 1 > tag.size())
        for (std::size_t k = 0; k < tag.size(); ++k) row[c0 + 1 + k] = tag[k];
    }
    return row;
  };

  std::ostringstream os;
  os << "Comm |" << render_lane(true) << "|\n";
  os << "Comp |" << render_lane(false) << "|\n";
  os << "      0" << std::string(width > 8 ? width - 8 : 1, ' ') << "t="
     << total << "s\n";
  os << "      legend: R=input transfer, W=output transfer, C=compute, "
        "s=host sync\n";
  return os.str();
}

}  // namespace rat::rcsim
