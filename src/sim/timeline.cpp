#include "sim/timeline.hpp"

#include <cstdio>
#include <string>
#include <utility>

#include "common/table.hpp"

namespace snapstab::sim {

std::string render_timeline(const ObservationLog& log,
                            const TimelineOptions& options) {
  TextTable table({"step", "process", "layer", "event", "peer", "value"});
  std::size_t rows = 0;
  std::size_t omitted = 0;
  for (const auto& e : log.events()) {
    if (options.layer.has_value() && e.layer != *options.layer) continue;
    if (options.process.has_value() && e.process != *options.process)
      continue;
    if (rows >= options.max_rows) {
      ++omitted;
      continue;
    }
    ++rows;
    // Built with += rather than "p" + std::to_string(...): GCC 12 raises a
    // false -Wrestrict on the inlined operator+ in optimized builds.
    std::string process = "p";
    process += std::to_string(e.process);
    table.add_row({TextTable::cell(e.step), std::move(process),
                   layer_name(e.layer), obs_kind_name(e.kind),
                   e.peer < 0 ? "-" : std::to_string(e.peer),
                   e.value.to_string()});
  }
  std::string out = table.render();
  if (omitted > 0) {
    char line[64];
    std::snprintf(line, sizeof line, "(… %zu more rows omitted)\n", omitted);
    out += line;
  }
  return out;
}

}  // namespace snapstab::sim
