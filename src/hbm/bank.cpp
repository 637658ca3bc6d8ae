#include "hbm/bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "fault/cell_traits.hpp"
#include "hbm/ecc.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::hbm {

Bank::Bank(const Geometry& geometry, const TimingParams& timings, fault::BankContext context,
           const RowScrambler& scrambler, const fault::RowHammerModel& rh_model,
           const fault::RetentionModel& retention_model)
    : geometry_(&geometry),
      timings_(timings),
      context_(context),
      scrambler_(&scrambler),
      rh_model_(&rh_model),
      retention_model_(&retention_model),
      timing_(timings_) {}

void Bank::activate(std::uint32_t logical_row, Cycle now, double temperature_c) {
  RH_EXPECTS(logical_row < geometry_->rows_per_bank);
  timing_.on_activate(now, logical_row);
  const std::uint32_t p = scrambler_->logical_to_physical(logical_row);
  settle(p, now, temperature_c);
  open_physical_ = p;
  act_cycle_ = now;
  add_act_disturbance(p, 1.0);
  ++stats_.activates;
}

void Bank::precharge(Cycle now, double temperature_c) {
  (void)temperature_c;
  timing_.on_precharge(now);
  // RowPress: an aggressor held open past tRAS disturbs its neighbours more
  // per activation. The extra disturbance is attributable at PRE time, when
  // the on-time is known. The ACT itself already deposited weight 1.0.
  const double extra = press_factor(now - act_cycle_) - 1.0;
  if (extra > 0.0) add_act_disturbance(open_physical_, extra);
}

double Bank::press_factor(Cycle on_time) const {
  // RowPress (ISCA'23): disturbance per activation grows roughly
  // logarithmically with the aggressor row's on-time beyond tRAS.
  if (on_time <= timings_.tRAS) return 1.0;
  const double rel = static_cast<double>(on_time - timings_.tRAS) /
                     static_cast<double>(timings_.tRAS);
  return 1.0 + rh_model_->config().press_coeff * std::log1p(rel);
}

void Bank::read(std::uint32_t column, Cycle now, bool ecc_enabled, std::span<std::uint8_t> out) {
  RH_EXPECTS(column < geometry_->columns_per_row);
  RH_EXPECTS(out.size() == geometry_->bytes_per_column);
  timing_.on_read(now);
  load(column, ecc_enabled, out);
  ++stats_.reads;
}

void Bank::write(std::uint32_t column, std::span<const std::uint8_t> data, Cycle now) {
  RH_EXPECTS(column < geometry_->columns_per_row);
  RH_EXPECTS(data.size() == geometry_->bytes_per_column);
  timing_.on_write(now);
  store(column, data);
  ++stats_.writes;
}

void Bank::check_column(Cycle now, bool is_write) {
  if (is_write) {
    timing_.on_write(now);
  } else {
    timing_.on_read(now);
  }
}

void Bank::write_columns(std::span<const std::uint8_t> image, std::uint32_t columns) {
  RH_EXPECTS(columns <= geometry_->columns_per_row);
  RH_EXPECTS(image.size() == geometry_->row_bytes());
  if (columns == 0) return;  // nothing issued: the row stays untouched
  const std::uint32_t moved = short_burst_bug_ ? columns - 1 : columns;
  store(0, image.first(static_cast<std::size_t>(moved) * geometry_->bytes_per_column));
  stats_.writes += columns;
}

void Bank::read_columns(std::uint32_t columns, bool ecc_enabled, std::span<std::uint8_t> out) {
  RH_EXPECTS(columns <= geometry_->columns_per_row);
  RH_EXPECTS(out.size() == geometry_->row_bytes());
  if (columns == 0) return;
  const std::uint32_t moved = short_burst_bug_ ? columns - 1 : columns;
  load(0, ecc_enabled, out.first(static_cast<std::size_t>(moved) * geometry_->bytes_per_column));
  stats_.reads += columns;
}

void Bank::store(std::uint32_t first_column, std::span<const std::uint8_t> data) {
  // A store over the whole row (the row-burst kernel's WRROW) overwrites
  // every byte, so a fresh row needs no power-on content first.
  const bool whole_row = data.size() == geometry_->row_bytes();
  RowState& rs = ensure_materialized(open_physical_, !whole_row);
  const auto off = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(first_column) *
                                               geometry_->bytes_per_column);
  std::copy(data.begin(), data.end(), rs.raw.begin() + off);
  std::copy(data.begin(), data.end(), rs.written.begin() + off);
}

void Bank::load(std::uint32_t first_column, bool ecc_enabled, std::span<std::uint8_t> out) {
  const RowState& rs = ensure_materialized(open_physical_);
  const std::size_t bytes = geometry_->bytes_per_column;
  const std::size_t off = static_cast<std::size_t>(first_column) * bytes;
  std::copy_n(rs.raw.begin() + static_cast<std::ptrdiff_t>(off), out.size(), out.begin());
  if (!ecc_enabled) return;
  const auto written = std::span<const std::uint8_t>(rs.written).subspan(off, out.size());
  for (std::size_t at = 0; at < out.size(); at += bytes) {
    stats_.ecc_corrections += ecc_correct_read(out.subspan(at, bytes), written.subspan(at, bytes));
  }
}

void Bank::refresh_physical_row(std::uint32_t physical_row, Cycle now, double temperature_c) {
  RH_EXPECTS(physical_row < geometry_->rows_per_bank);
  RH_EXPECTS(!timing_.open());
  settle(physical_row, now, temperature_c);
}

void Bank::note_full_refresh(Cycle now, Cycle refresh_start, double temperature_c) {
  RH_EXPECTS(!timing_.open());
  // Materialize pending fault state of every row we track (rows with data
  // and rows that only accumulated disturbance), then collapse all refresh
  // bookkeeping to `now`. While the internal refresh engine runs (from
  // `refresh_start`), a row goes at most one refresh window unrefreshed —
  // decay accrues only until then; accumulated RowHammer disturbance is
  // sensed and locked in by the first sweep.
  const Cycle decayed_until = std::min(now, refresh_start + timings_.refresh_window);
  const std::vector<std::uint32_t> live = disturbance_.live_rows();
  std::vector<std::uint32_t> pending;
  pending.reserve(rows_.size() + live.size());
  for (const auto& [row, state] : rows_) {
    (void)state;
    pending.push_back(row);
  }
  for (const std::uint32_t row : live) {
    if (rows_.find(row) == rows_.end()) pending.push_back(row);
  }
  for (const std::uint32_t row : pending) settle_impl(row, now, decayed_until, temperature_c);
  disturbance_.clear();
  last_refresh_.clear();
  epoch_ = now;
}

void Bank::hammer_pair(std::uint32_t logical_row_a, std::uint32_t logical_row_b,
                       std::uint64_t count, Cycle on_time, Cycle end, double temperature_c) {
  RH_EXPECTS(logical_row_a < geometry_->rows_per_bank);
  RH_EXPECTS(logical_row_b < geometry_->rows_per_bank);
  timing_.note_batch_end(end);
  const std::uint32_t pa = scrambler_->logical_to_physical(logical_row_a);
  const std::uint32_t pb = scrambler_->logical_to_physical(logical_row_b);
  // Each aggressor's own pending state materializes before the batch (its
  // first ACT senses and restores it)...
  settle(pa, end, temperature_c);
  settle(pb, end, temperature_c);
  const double scale = static_cast<double>(count) * press_factor(on_time);
  add_act_disturbance(pa, scale);
  if (pb != pa) add_act_disturbance(pb, scale);
  // ...and its *last* ACT restores it again, clearing whatever disturbance
  // the opposite aggressor deposited during the batch.
  if (!stale_flush_bug_) {
    disturbance_.erase(pa);
    disturbance_.erase(pb);
  }
  last_refresh_[pa] = end;
  last_refresh_[pb] = end;
  stats_.activates += 2 * count;
}

void Bank::hammer_single(std::uint32_t logical_row, std::uint64_t count, Cycle on_time, Cycle end,
                         double temperature_c) {
  RH_EXPECTS(logical_row < geometry_->rows_per_bank);
  timing_.note_batch_end(end);
  const std::uint32_t p = scrambler_->logical_to_physical(logical_row);
  settle(p, end, temperature_c);
  add_act_disturbance(p, static_cast<double>(count) * press_factor(on_time));
  if (!stale_flush_bug_) disturbance_.erase(p);
  last_refresh_[p] = end;
  stats_.activates += count;
}

double Bank::disturbance_of_physical(std::uint32_t physical_row) const {
  return disturbance_.get(physical_row);
}

bool Bank::row_materialized_physical(std::uint32_t physical_row) const {
  return rows_.find(physical_row) != rows_.end();
}

Bank::RowState& Bank::ensure_materialized(std::uint32_t physical_row, bool power_on_fill) {
  if (memo_state_ != nullptr && memo_row_ == physical_row) return *memo_state_;
  auto it = rows_.find(physical_row);
  if (it == rows_.end()) {
    RowState rs;
    rs.raw.resize(geometry_->row_bytes());
    if (power_on_fill) {
      fault::fill_default_data(rh_model_->config().seed, context_, physical_row, rs.raw);
    }
    rs.written = rs.raw;
    it = rows_.emplace(physical_row, std::move(rs)).first;
  }
  memo_row_ = physical_row;
  memo_state_ = &it->second;
  return it->second;
}

std::span<const std::uint8_t> Bank::neighbour_data(std::uint32_t physical_row,
                                                   std::int64_t neighbour,
                                                   std::vector<std::uint8_t>& scratch) {
  if (neighbour < 0 || neighbour >= static_cast<std::int64_t>(geometry_->rows_per_bank)) return {};
  const auto n = static_cast<std::uint32_t>(neighbour);
  if (rh_model_->layout().crosses_boundary(physical_row, n)) return {};
  const auto it = rows_.find(n);
  if (it != rows_.end()) return it->second.raw;
  scratch.resize(geometry_->row_bytes());
  fault::fill_default_data(rh_model_->config().seed, context_, n, scratch);
  return scratch;
}

void Bank::settle(std::uint32_t physical_row, Cycle now, double temperature_c) {
  settle_impl(physical_row, now, now, temperature_c);
}

void Bank::settle_impl(std::uint32_t physical_row, Cycle now, Cycle decayed_until,
                       double temperature_c) {
  const auto lr = last_refresh_.find(physical_row);
  Cycle last = lr == last_refresh_.end() ? epoch_ : lr->second;
  if (sweep_lane_ != nullptr) last = std::max(last, sweep_lane_[physical_row]);
  const Cycle since = decayed_until > last ? decayed_until - last : 0;
  const double elapsed_s = static_cast<double>(since) *
                           static_cast<double>(kCyclePicoseconds) * 1e-12;
  const double disturbance = disturbance_.get(physical_row);

  const bool need_retention =
      elapsed_s >= retention_model_->global_min_retention_s(temperature_c);
  const bool need_rh = disturbance >= rh_model_->global_min_disturbance();
  // Retention decay of a row that was never written (and never disturbed)
  // turns power-on junk into different junk — unobservable, so don't
  // materialize storage for it. Written rows always settle their decay.
  const bool tracked = rows_.find(physical_row) != rows_.end();

  if ((need_retention && tracked) || need_rh) {
    RowState& rs = ensure_materialized(physical_row);
    ++stats_.settles;
    std::size_t retention_flipped = 0;
    std::size_t rh_flipped = 0;
    if (need_retention) {
      retention_flipped =
          retention_model_->apply(context_, physical_row, rs.raw, elapsed_s, temperature_c);
      stats_.retention_flips += retention_flipped;
    }
    if (need_rh) {
      const auto above =
          neighbour_data(physical_row, static_cast<std::int64_t>(physical_row) - 1, scratch_above_);
      const auto below =
          neighbour_data(physical_row, static_cast<std::int64_t>(physical_row) + 1, scratch_below_);
      rh_flipped = rh_model_->apply(context_, physical_row, rs.raw, above, below, disturbance,
                                    temperature_c);
      stats_.rowhammer_flips += rh_flipped;
    }
    if (rh_flipped + retention_flipped > 0) {
      RH_TELEM(telemetry_,
               on_bit_flips(now, context_.channel, context_.pseudo_channel, context_.bank,
                            physical_row, static_cast<std::uint32_t>(rh_flipped),
                            static_cast<std::uint32_t>(retention_flipped), disturbance));
    }
  }
  disturbance_.erase(physical_row);
  last_refresh_[physical_row] = now;
}

void Bank::add_act_disturbance(std::uint32_t aggressor, double scale) {
  const auto& cfg = rh_model_->config();
  const auto& layout = rh_model_->layout();
  // Disturbance stays inside the aggressor's subarray, whose bounds also
  // keep it inside the bank (the layout spans the bank): one lookup per ACT.
  const std::uint32_t sa = layout.subarray_of(aggressor);
  const std::int64_t first = layout.start_of(sa);
  const std::int64_t end = first + layout.size_of(sa);
  const auto add = [&](std::int64_t victim, double weight) {
    if (victim < first || victim >= end) return;
    disturbance_.add(static_cast<std::uint32_t>(victim), weight * scale, geometry_->rows_per_bank);
  };
  const auto a = static_cast<std::int64_t>(aggressor);
  add(a - 1, cfg.distance1_weight);
  add(a + 1, cfg.distance1_weight);
  add(a - 2, cfg.distance2_weight);
  add(a + 2, cfg.distance2_weight);
}

}  // namespace rh::hbm
