#include "core/row_map.hpp"

#include <algorithm>
#include <string>

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "core/data_patterns.hpp"

namespace rh::core {

RowMap::RowMap(std::uint32_t rows) : log_to_phys_(rows), phys_to_log_(rows) {
  for (std::uint32_t r = 0; r < rows; ++r) {
    log_to_phys_[r] = r;
    phys_to_log_[r] = r;
  }
}

RowMap RowMap::from_device(const hbm::Device& device) {
  RowMap map(device.geometry().rows_per_bank);
  for (std::uint32_t logical = 0; logical < map.rows(); ++logical) {
    map.set(logical, device.scrambler().logical_to_physical(logical));
  }
  return map;
}

std::uint32_t RowMap::logical_to_physical(std::uint32_t logical) const {
  RH_EXPECTS(logical < log_to_phys_.size());
  return log_to_phys_[logical];
}

std::uint32_t RowMap::physical_to_logical(std::uint32_t physical) const {
  RH_EXPECTS(physical < phys_to_log_.size());
  return phys_to_log_[physical];
}

void RowMap::set(std::uint32_t logical, std::uint32_t physical) {
  RH_EXPECTS(logical < log_to_phys_.size());
  RH_EXPECTS(physical < phys_to_log_.size());
  log_to_phys_[logical] = physical;
  phys_to_log_[physical] = logical;
}

AdjacencyProbe probe_adjacency(bender::BenderHost& host, const Site& site,
                               std::uint32_t aggressor_logical, std::uint32_t window,
                               std::uint64_t hammers) {
  const auto& geometry = host.device().geometry();
  RH_EXPECTS(aggressor_logical < geometry.rows_per_bank);
  const std::uint32_t lo =
      aggressor_logical > window ? aggressor_logical - window : 0;
  const std::uint32_t hi =
      std::min(geometry.rows_per_bank - 1, aggressor_logical + window);

  bender::ProgramBuilder b(geometry, host.device().timings());
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);  // raw flips, per §3.1
  // Victims all-zero (anti cells charged + opposite aggressor = strongest
  // coupling); the aggressor all-one.
  b.program().set_wide_register(0, make_row_image(geometry, 0x00));
  b.program().set_wide_register(1, make_row_image(geometry, 0xFF));
  for (std::uint32_t r = lo; r <= hi; ++r) {
    b.init_row(static_cast<std::uint8_t>(site.bank), r, r == aggressor_logical ? 1 : 0);
  }
  b.ldi(0, aggressor_logical);
  b.hammer_single(static_cast<std::uint8_t>(site.bank), 0, static_cast<std::int64_t>(hammers));
  std::vector<std::uint32_t> read_order;
  for (std::uint32_t r = lo; r <= hi; ++r) {
    if (r == aggressor_logical) continue;
    b.read_row(static_cast<std::uint8_t>(site.bank), r);
    read_order.push_back(r);
  }

  const auto result = host.run(b.take(), site.channel, site.pseudo_channel);

  AdjacencyProbe probe;
  probe.aggressor_logical = aggressor_logical;
  const std::size_t row_bytes = geometry.row_bytes();
  for (std::size_t i = 0; i < read_order.size(); ++i) {
    const std::span<const std::uint8_t> row(result.readback.data() + i * row_bytes, row_bytes);
    if (count_flips(row, 0x00).total > 0) probe.victims_logical.push_back(read_order[i]);
  }
  return probe;
}

RowMap reverse_engineer_window(bender::BenderHost& host, const Site& site, std::uint32_t first,
                               std::uint32_t count) {
  const auto& geometry = host.device().geometry();
  RH_EXPECTS(first + count <= geometry.rows_per_bank);

  // Collect probes for a handful of aggressors across the window.
  std::vector<AdjacencyProbe> probes;
  const std::uint32_t step = std::max(1u, count / 8);
  for (std::uint32_t r = first; r < first + count; r += step) {
    probes.push_back(probe_adjacency(host, site, r));
  }

  // Match against the known decoder families (identity / pair-swap /
  // xor-fold), the same way real reverse-engineering matches observed
  // adjacency against vendor mapping families from prior work.
  const std::array<hbm::ScrambleKind, 3> candidates{
      hbm::ScrambleKind::kIdentity, hbm::ScrambleKind::kPairSwap, hbm::ScrambleKind::kXorFold};
  const auto& layout = host.device().subarray_layout();

  for (const auto kind : candidates) {
    const hbm::RowScrambler scrambler(kind, geometry.rows_per_bank);
    bool consistent = true;
    for (const auto& probe : probes) {
      // Predicted victims: logical rows whose physical index is adjacent to
      // the aggressor's physical index within the same subarray.
      const std::uint32_t p = scrambler.logical_to_physical(probe.aggressor_logical);
      std::vector<std::uint32_t> predicted;
      for (const std::int64_t d : {-1, +1}) {
        const std::int64_t v = static_cast<std::int64_t>(p) + d;
        if (v < 0 || v >= static_cast<std::int64_t>(geometry.rows_per_bank)) continue;
        if (layout.crosses_boundary(p, static_cast<std::uint32_t>(v))) continue;
        predicted.push_back(scrambler.physical_to_logical(static_cast<std::uint32_t>(v)));
      }
      std::sort(predicted.begin(), predicted.end());
      std::vector<std::uint32_t> observed = probe.victims_logical;
      std::sort(observed.begin(), observed.end());
      // Every observed victim must be predicted. (A predicted victim can be
      // missing from the observation if that row happens to be RH-strong,
      // so we require observed ⊆ predicted and at least one observation.)
      if (observed.empty() ||
          !std::includes(predicted.begin(), predicted.end(), observed.begin(), observed.end())) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      RowMap map(geometry.rows_per_bank);
      for (std::uint32_t logical = 0; logical < map.rows(); ++logical) {
        map.set(logical, scrambler.logical_to_physical(logical));
      }
      return map;
    }
  }
  throw common::Error("reverse engineering failed: no known mapping family matches the probes");
}

RowMap reverse_engineer_exact(bender::BenderHost& host, const Site& site, std::uint32_t first,
                              std::uint32_t count) {
  const auto& geometry = host.device().geometry();
  RH_EXPECTS(count >= 2);
  RH_EXPECTS(first + count <= geometry.rows_per_bank);

  // Probe every row in the window; victims inside the window become path
  // edges, victims outside anchor the orientation.
  std::vector<std::vector<std::uint32_t>> internal(count);
  std::vector<std::vector<std::uint32_t>> external(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto probe = probe_adjacency(host, site, first + i);
    for (const std::uint32_t victim : probe.victims_logical) {
      if (victim >= first && victim < first + count) {
        internal[i].push_back(victim - first);
      } else {
        external[i].push_back(victim);
      }
    }
  }
  // Symmetrize: physical adjacency is mutual even if one direction's probe
  // missed (an RH-strong victim row).
  for (std::uint32_t i = 0; i < count; ++i) {
    for (const std::uint32_t j : internal[i]) {
      if (std::find(internal[j].begin(), internal[j].end(), i) == internal[j].end()) {
        internal[j].push_back(i);
      }
    }
  }

  // The window's physical layout is a path: exactly two degree-1 endpoints.
  std::vector<std::uint32_t> endpoints;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (internal[i].size() == 1) endpoints.push_back(i);
    if (internal[i].size() > 2 || internal[i].empty()) {
      throw common::Error("adjacency probes do not form a path (row " +
                          std::to_string(first + i) + " has degree " +
                          std::to_string(internal[i].size()) + ")");
    }
  }
  if (endpoints.size() != 2) {
    throw common::Error("adjacency graph has " + std::to_string(endpoints.size()) +
                        " endpoints; expected a single path");
  }

  // Orientation: the endpoint whose external victim is logical row first-1
  // sits next to the preceding window, i.e. at physical index `first`.
  // (With a group-local decoder, the row physically adjacent across the
  // window boundary is the logically adjacent one.)
  std::uint32_t start = endpoints[0];
  const auto anchored_low = [&](std::uint32_t e) {
    return first > 0 && std::find(external[e].begin(), external[e].end(), first - 1) !=
                            external[e].end();
  };
  const auto anchored_high = [&](std::uint32_t e) {
    return std::find(external[e].begin(), external[e].end(), first + count) !=
           external[e].end();
  };
  if (anchored_low(endpoints[1]) || anchored_high(endpoints[0])) {
    start = endpoints[1];
  } else if (!anchored_low(endpoints[0]) && !anchored_high(endpoints[1])) {
    throw common::Error("cannot orient the recovered path: no external anchor edges");
  }

  // Walk the path, assigning physical indices in order.
  RowMap map(geometry.rows_per_bank);
  std::uint32_t prev = count;  // sentinel: no previous node
  std::uint32_t node = start;
  for (std::uint32_t p = 0; p < count; ++p) {
    map.set(first + node, first + p);
    std::uint32_t next = count;
    for (const std::uint32_t n : internal[node]) {
      if (n != prev) next = n;
    }
    prev = node;
    if (next == count && p + 1 < count) {
      throw common::Error("path walk ended early at physical offset " + std::to_string(p));
    }
    node = next;
  }
  return map;
}

std::vector<std::uint32_t> find_subarray_boundaries(bender::BenderHost& host, const Site& site,
                                                    const RowMap& map,
                                                    std::uint32_t first_physical,
                                                    std::uint32_t count) {
  const auto& geometry = host.device().geometry();
  RH_EXPECTS(first_physical + count <= geometry.rows_per_bank);
  std::vector<std::uint32_t> starts;

  // One directed probe: hammer physical `agg` single-sided, report whether
  // each existing physical neighbour collected flips.
  const auto probe = [&](std::uint32_t agg) {
    bender::ProgramBuilder b(geometry, host.device().timings());
    b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);  // raw flips, per §3.1
    b.program().set_wide_register(0, make_row_image(geometry, 0x00));
    b.program().set_wide_register(1, make_row_image(geometry, 0xFF));
    const auto bank = static_cast<std::uint8_t>(site.bank);
    std::vector<std::uint32_t> victims;
    for (const std::int64_t d : {-1, +1}) {
      const std::int64_t v = static_cast<std::int64_t>(agg) + d;
      if (v < 0 || v >= static_cast<std::int64_t>(geometry.rows_per_bank)) continue;
      victims.push_back(static_cast<std::uint32_t>(v));
    }
    for (const std::uint32_t v : victims) {
      b.init_row(bank, map.physical_to_logical(v), 0);
    }
    b.init_row(bank, map.physical_to_logical(agg), 1);
    b.ldi(0, map.physical_to_logical(agg));
    b.hammer_single(bank, 0, 480'000);
    for (const std::uint32_t v : victims) {
      b.read_row(bank, map.physical_to_logical(v));
    }
    const auto result = host.run(b.take(), site.channel, site.pseudo_channel);
    const std::size_t row_bytes = geometry.row_bytes();
    struct Flips {
      bool above = false;  // physical agg-1
      bool below = false;  // physical agg+1
    } flips;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      const std::span<const std::uint8_t> row(result.readback.data() + i * row_bytes, row_bytes);
      const bool flipped = count_flips(row, 0x00).total > 0;
      if (victims[i] + 1 == agg) flips.above = flipped;
      if (victims[i] == agg + 1) flips.below = flipped;
    }
    return flips;
  };

  for (std::uint32_t p = std::max(first_physical, 1u); p < first_physical + count; ++p) {
    // Boundary candidate p: the sense-amp stripe between p-1 and p blocks
    // disturbance in *both* directions, and both rows must demonstrably
    // flip their same-subarray neighbour (otherwise an RH-strong victim row
    // would masquerade as a boundary).
    const auto from_p = probe(p);
    if (from_p.above || !from_p.below) continue;
    const auto from_prev = probe(p - 1);
    if (from_prev.below) continue;                 // p-1 still disturbs p: same subarray
    if (p >= 2 && !from_prev.above) continue;      // p-1 can't flip anyone: inconclusive
    starts.push_back(p);
  }
  return starts;
}

}  // namespace rh::core
