#include "hbm/timing_checker.hpp"

#include <string>

namespace rh::hbm {

namespace {

[[noreturn]] void timing_violation(const char* rule, Cycle need, Cycle now) {
  throw common::TimingError(std::string("timing violation: ") + rule + " requires cycle >= " +
                            std::to_string(need) + ", command issued at " + std::to_string(now));
}

}  // namespace

void BankTiming::on_activate(Cycle now, std::uint32_t logical_row) {
  if (open_) throw common::ProtocolError("ACT to a bank with an open row");
  if (ever_activated_ && now < last_act_ + t_->tRC) timing_violation("tRC", last_act_ + t_->tRC, now);
  if (ever_precharged_ && now < last_pre_ + t_->tRP) timing_violation("tRP", last_pre_ + t_->tRP, now);
  open_ = true;
  open_row_ = logical_row;
  last_act_ = now;
  ever_activated_ = true;
}

void BankTiming::on_precharge(Cycle now) {
  if (!open_) throw common::ProtocolError("PRE to a bank with no open row");
  if (now < last_act_ + t_->tRAS) timing_violation("tRAS", last_act_ + t_->tRAS, now);
  // Gate on ever-flags, not cycle sentinels: a column command issued at
  // cycle 0 (reachable when tRCD is degenerate) must still be recovered.
  if (ever_written_ && now < last_wr_ + t_->tWR) timing_violation("tWR", last_wr_ + t_->tWR, now);
  if (ever_read_ && now < last_rd_ + t_->tRTP) timing_violation("tRTP", last_rd_ + t_->tRTP, now);
  open_ = false;
  last_pre_ = now;
  ever_precharged_ = true;
}

void BankTiming::on_read(Cycle now) {
  if (!open_) throw common::ProtocolError("RD to a bank with no open row");
  if (now < last_act_ + t_->tRCD) timing_violation("tRCD", last_act_ + t_->tRCD, now);
  last_rd_ = now;
  ever_read_ = true;
}

void BankTiming::on_write(Cycle now) {
  if (!open_) throw common::ProtocolError("WR to a bank with no open row");
  if (now < last_act_ + t_->tRCD) timing_violation("tRCD", last_act_ + t_->tRCD, now);
  last_wr_ = now;
  ever_written_ = true;
}

void BankTiming::note_batch_end(Cycle end) {
  if (open_) throw common::ProtocolError("batch hammer requires the bank to be precharged");
  last_act_ = end > t_->tRC ? end - t_->tRC : 0;
  last_pre_ = end > t_->tRP ? end - t_->tRP : 0;
  ever_activated_ = true;
  ever_precharged_ = true;
}

void ChannelTiming::on_activate(Cycle now, std::uint32_t bank) {
  check_not_refreshing(now);
  const std::uint32_t group = t_->banks_per_group > 0 ? bank / t_->banks_per_group : 0;
  if (ever_activated_ && now < last_act_ + t_->tRRD) {
    timing_violation("tRRD", last_act_ + t_->tRRD, now);
  }
  if (group < group_ever_act_.size() && group_ever_act_[group] &&
      now < group_last_act_[group] + t_->tRRD_L) {
    timing_violation("tRRD_L", group_last_act_[group] + t_->tRRD_L, now);
  }
  if (faw_count_ >= 4 && now < faw_[faw_count_ % 4] + t_->tFAW) {
    timing_violation("tFAW", faw_[faw_count_ % 4] + t_->tFAW, now);
  }
  last_act_ = now;
  ever_activated_ = true;
  if (group >= group_ever_act_.size()) {
    group_ever_act_.resize(group + 1, false);
    group_last_act_.resize(group + 1, 0);
  }
  group_ever_act_[group] = true;
  group_last_act_[group] = now;
  faw_[faw_count_ % 4] = now;
  ++faw_count_;
}

void ChannelTiming::on_column(Cycle now, bool is_write) {
  check_not_refreshing(now);
  if (ever_column_ && now < last_col_ + t_->tCCD) timing_violation("tCCD", last_col_ + t_->tCCD, now);
  if (!is_write && ever_written_ && now < last_wr_ + t_->tWTR) {
    timing_violation("tWTR", last_wr_ + t_->tWTR, now);
  }
  last_col_ = now;
  ever_column_ = true;
  if (is_write) {
    last_wr_ = now;
    ever_written_ = true;
  }
}

void ChannelTiming::on_refresh(Cycle now) {
  check_not_refreshing(now);
  ref_done_ = now + t_->tRFC;
}

void ChannelTiming::check_not_refreshing(Cycle now) const {
  if (now < ref_done_) timing_violation("tRFC", ref_done_, now);
}

}  // namespace rh::hbm
