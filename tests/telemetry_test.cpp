// Tests of the rh_telemetry module: registry semantics, histogram
// bucketing, trace-ring wraparound, export well-formedness, and — through a
// real device + executor — that the recorded command mix matches what a
// hand-written Bender program implies.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "bender/executor.hpp"
#include "bender/program.hpp"
#include "core/data_patterns.hpp"
#include "hbm/device.hpp"

namespace rh::telemetry {
namespace {

// --- minimal JSON syntax check ------------------------------------------
// Validates balanced {} / [] nesting outside string literals and rejects
// trailing garbage. Not a full parser, but catches the classes of breakage
// an emitter regression produces (unbalanced braces, unescaped quotes,
// missing commas are caught structurally by brace mismatch).
bool json_balanced(const std::string& text) {
  std::string stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string literal
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

// --- registry ------------------------------------------------------------

TEST(MetricsRegistryTest, CounterIdentityAndAccumulation) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cmd.act");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.counter("cmd.act").value(), 42u);  // same instance by name
  EXPECT_EQ(&reg.counter("cmd.act"), &c);
  EXPECT_EQ(reg.counter("cmd.other").value(), 0u);
}

TEST(MetricsRegistryTest, GaugeKeepsLastValue) {
  MetricsRegistry reg;
  reg.gauge("ref.pointer").set(3.0);
  reg.gauge("ref.pointer").set(7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("ref.pointer").value(), 7.0);
}

TEST(MetricsRegistryTest, SnapshotFindsAndDefaults) {
  MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.gauge("b").set(2.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("a"), nullptr);
  EXPECT_EQ(snap.find("a")->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.value_or("a", -1.0), 5.0);
  EXPECT_DOUBLE_EQ(snap.value_or("b", -1.0), 2.5);
  EXPECT_DOUBLE_EQ(snap.value_or("missing", -1.0), -1.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistration) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  c.add(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("a"), &c);
}

// --- histogram -----------------------------------------------------------

TEST(FixedHistogramTest, BucketsSamplesUniformly) {
  FixedHistogram h(0.0, 10.0, 5);  // buckets [0,2) [2,4) [4,6) [6,8) [8,10)
  h.observe(1.0);
  h.observe(3.0);
  h.observe(3.5);
  h.observe(9.9);
  EXPECT_EQ(h.total(), 4u);
  ASSERT_EQ(h.buckets().size(), 5u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 4.0);
}

TEST(FixedHistogramTest, ClampsOutOfRangeIntoEdgeBuckets) {
  FixedHistogram h(0.0, 10.0, 5);
  h.observe(-100.0);
  h.observe(100.0);
  h.observe(10.0);  // hi is exclusive: lands in the top bucket
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

// --- trace ring ----------------------------------------------------------

CommandEvent act_event(std::uint64_t cycle, std::uint32_t row) {
  CommandEvent e;
  e.cycle = cycle;
  e.row = row;
  e.command = TraceCommand::kAct;
  return e;
}

TEST(TraceRingTest, FillsThenWrapsOverwritingOldest) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(act_event(i, static_cast<std::uint32_t>(i)));
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.in_order();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].cycle, i + 2);  // oldest first
}

TEST(TraceRingTest, PartialFillKeepsInsertionOrder) {
  TraceRing ring(8);
  ring.push(act_event(10, 1));
  ring.push(act_event(20, 2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.in_order();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cycle, 10u);
  EXPECT_EQ(events[1].cycle, 20u);
}

TEST(TraceRingTest, ClearEmptiesEverything) {
  TraceRing ring(4);
  ring.push(act_event(1, 1));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.in_order().empty());
}

// --- export --------------------------------------------------------------

TEST(TelemetryExportTest, MetricsJsonIsWellFormed) {
  Telemetry telem;
  telem.on_command(TraceCommand::kAct, 100, 0, 0, 3, 42);
  telem.on_trr_trigger(200, 1, 0, 2, 77, false);
  telem.on_bit_flips(300, 0, 1, 5, 1234, 3, 1, 80000.0);
  telem.on_refresh_pointer(0, 0, 17);
  std::ostringstream os;
  telem.write_metrics_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"cmd.ACT\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trr.proprietary_triggers\":1"), std::string::npos);
  EXPECT_NE(json.find("\"flip.rowhammer_bits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"bank_act_heatmap\""), std::string::npos);
}

TEST(TelemetryExportTest, ChromeTraceIsWellFormedAndLabelsLanes) {
  Telemetry telem;
  telem.on_command(TraceCommand::kAct, 100, 2, 1, 3, 42);
  telem.on_command(TraceCommand::kPre, 130, 2, 1, 3, 0);
  std::ostringstream os;
  telem.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ACT\""), std::string::npos);
  EXPECT_NE(json.find("\"PRE\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);  // lane metadata
}

TEST(TelemetryExportTest, CsvSnapshotHasOneRowPerMetricAndBucket) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.histogram("h", 0.0, 4.0, 2).observe(1.0);
  std::ostringstream os;
  common::CsvWriter csv(os);
  reg.snapshot().write_csv(csv);
  const std::string text = os.str();
  // header + counter + one row per histogram bucket
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("c,counter"), std::string::npos);
  EXPECT_NE(text.find("h[0]"), std::string::npos);
  EXPECT_NE(text.find("h[1]"), std::string::npos);
}

TEST(TelemetryExportTest, HeatmapRendersOneLanePerRowAndMarksActivity) {
  TelemetryConfig config;
  config.channels = 2;
  config.pseudo_channels = 2;
  config.banks = 4;
  Telemetry telem(config);
  for (std::uint64_t i = 0; i < 100; ++i) telem.on_command(TraceCommand::kAct, 10 * i, 1, 0, 2, 5);
  std::ostringstream os;
  telem.render_act_heatmap(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("ch1.pc0"), std::string::npos);
  EXPECT_NE(text.find("ch0.pc1"), std::string::npos);
  // The hammered lane renders a max-intensity cell; idle lanes render blanks.
  EXPECT_NE(text.find('@'), std::string::npos);
}

TEST(TelemetryTest, TraceDropsSurfaceAsACounterAndSurviveAbsorb) {
  // Overflowing the ring must be *visible*: the synthesized
  // telemetry.trace_dropped counter carries the loss into every snapshot,
  // metrics export, and run report, and absorb() accumulates the worker
  // fleet's drops even though the absorbed rings themselves are gone.
  TelemetryConfig config;
  config.trace_capacity = 4;
  Telemetry telem(config);
  for (std::uint64_t i = 0; i < 6; ++i) telem.on_command(TraceCommand::kAct, i, 0, 0, 0, 1);
  EXPECT_EQ(telem.trace().dropped(), 2u);
  EXPECT_EQ(telem.trace_dropped_total(), 2u);
  EXPECT_DOUBLE_EQ(telem.snapshot().value_or("telemetry.trace_dropped", -1.0), 2.0);
  std::ostringstream os;
  telem.write_metrics_json(os);
  EXPECT_NE(os.str().find("\"telemetry.trace_dropped\":2"), std::string::npos) << os.str();

  // An aggregate with headroom absorbs the overflowed worker: the worker's
  // 4 retained events fit, but its 2 lost ones stay lost — the aggregate's
  // total must still account for them.
  TelemetryConfig roomy;
  roomy.trace_capacity = 16;
  Telemetry aggregate(roomy);
  aggregate.absorb(telem);
  EXPECT_EQ(aggregate.trace().dropped(), 0u);
  EXPECT_EQ(aggregate.trace_dropped_total(), 2u);
  EXPECT_DOUBLE_EQ(aggregate.snapshot().value_or("telemetry.trace_dropped", -1.0), 2.0);

  telem.reset();
  EXPECT_EQ(telem.trace_dropped_total(), 0u);
  EXPECT_DOUBLE_EQ(telem.snapshot().value_or("telemetry.trace_dropped", -1.0), 0.0);
}

TEST(TelemetryTest, UndroppedTraceStillReportsTheCounterAtZero) {
  // The counter is always present (dashboards key on it), just zero.
  Telemetry telem;
  telem.on_command(TraceCommand::kAct, 1, 0, 0, 0, 1);
  const MetricsSnapshot snap = telem.snapshot();
  const auto* entry = snap.find("telemetry.trace_dropped");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(entry->value, 0.0);
}

TEST(TelemetryTest, ResetClearsEverything) {
  Telemetry telem;
  telem.on_command(TraceCommand::kAct, 1, 0, 0, 0, 0);
  telem.on_hammer(100, 0, 0, 0, 10, 1000);
  telem.on_trr_trigger(1, 0, 0, 0, 1, true);
  telem.reset();
  EXPECT_EQ(telem.total_acts(), 0u);
  EXPECT_EQ(telem.trace().size(), 0u);
  EXPECT_TRUE(telem.trr_events().empty());
  EXPECT_DOUBLE_EQ(telem.snapshot().value_or("cmd.ACT", -1.0), 0.0);
}

// --- device + executor integration ---------------------------------------

class TelemetryIntegrationTest : public ::testing::Test {
protected:
  TelemetryIntegrationTest() : device_(hbm::DeviceConfig{}), executor_(device_) {
    device_.set_telemetry(&telem_);
  }

  bender::ProgramBuilder builder() {
    return bender::ProgramBuilder(device_.geometry(), device_.timings());
  }

  Telemetry telem_;
  hbm::Device device_;
  bender::Executor executor_;
};

TEST_F(TelemetryIntegrationTest, CommandMixMatchesHandWrittenProgram) {
  // init_row = ACT + one WR per column + PRE; read_row = ACT + one RD per
  // column + PRE; plus two explicit REFs. The recorded counters must equal
  // exactly this program-implied mix.
  const auto columns = device_.geometry().columns_per_row;
  auto b = builder();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0x5A));
  b.init_row(0, 42, 0);
  b.read_row(0, 42);
  b.ref();
  b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  b.ref();
  b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  const auto result = executor_.run(b.take(), 0, 0, 0);

  const MetricsSnapshot snap = telem_.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("cmd.ACT", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.value_or("cmd.PRE", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.value_or("cmd.WR", -1.0), static_cast<double>(columns));
  EXPECT_DOUBLE_EQ(snap.value_or("cmd.RD", -1.0), static_cast<double>(columns));
  EXPECT_DOUBLE_EQ(snap.value_or("cmd.REF", -1.0), 2.0);

  // The executor's own accounting agrees with the device-side counters.
  EXPECT_EQ(result.metrics.acts, 2u);
  EXPECT_EQ(result.metrics.precharges, 2u);
  EXPECT_EQ(result.metrics.writes, columns);
  EXPECT_EQ(result.metrics.reads, columns);
  EXPECT_EQ(result.metrics.refreshes, 2u);

  // All activity landed on bank 0 of channel 0 / pc 0.
  EXPECT_EQ(telem_.bank_act_count(0, 0, 0), 2u);
  EXPECT_EQ(telem_.total_acts(), 2u);
}

TEST_F(TelemetryIntegrationTest, HammerMacroCountsUnrolledActivationsOnHeatmap) {
  auto b = builder();
  b.ldi(0, 100);
  b.ldi(1, 102);
  b.hammer(0, 0, 1, 40);  // 40 double-sided pairs = 80 activations
  (void)executor_.run(b.take(), 0, 0, 0);
  EXPECT_DOUBLE_EQ(telem_.snapshot().value_or("cmd.ACT", -1.0), 80.0);
  EXPECT_EQ(telem_.bank_act_count(0, 0, 0), 80u);
  EXPECT_EQ(telem_.total_acts(), 80u);
  // The batch itself is one trace event carrying the activation count.
  const auto events = telem_.trace().in_order();
  bool saw_hammer = false;
  for (const auto& e : events) {
    if (e.command == TraceCommand::kHammer) {
      saw_hammer = true;
      EXPECT_EQ(e.arg, 80u);
    }
  }
  EXPECT_TRUE(saw_hammer);
}

TEST_F(TelemetryIntegrationTest, RefreshStreamsReportTrrTriggersAndPointer) {
  // Hammer to arm the TRR sampler, then issue two TRR periods' worth of
  // REFs: the proprietary engine (1 victim refresh per 17 REFs) must fire.
  auto b = builder();
  b.ldi(0, 100);
  b.ldi(1, 102);
  b.hammer(0, 0, 1, 5000);
  for (int i = 0; i < 40; ++i) {
    b.ref();
    b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  }
  (void)executor_.run(b.take(), 0, 0, 0);
  EXPECT_GE(telem_.snapshot().value_or("trr.proprietary_triggers", -1.0), 1.0);
  EXPECT_FALSE(telem_.trr_events().empty());
  EXPECT_FALSE(telem_.trr_events().front().documented);
  // REF progress is visible as the per-lane refresh-pointer gauge.
  EXPECT_GT(telem_.snapshot().value_or("ref.pointer.ch0.pc0", -1.0), 0.0);
}

TEST_F(TelemetryIntegrationTest, BitFlipMaterializationEmitsFlipEvents) {
  // A large double-sided hammer of logical rows 100/101 (physical 100 and
  // 102) then an activation of the bracketed victim: the settle that
  // materializes the flips must emit flip events and counters.
  device_.set_temperature(85.0);
  auto b = builder();
  b.ldi(0, 100);
  b.ldi(1, 101);
  b.hammer(0, 0, 1, 1'000'000);
  const auto result = executor_.run(b.take(), 0, 0, 0);

  // Activate every logical row decoding near the victim band to settle it.
  hbm::Cycle now = result.end_cycle + device_.timings().tRP;
  const auto& t = device_.timings();
  for (std::uint32_t logical = 99; logical <= 103; ++logical) {
    device_.activate(hbm::BankAddress{0, 0, 0}, logical, now);
    device_.precharge(hbm::BankAddress{0, 0, 0}, now + t.tRAS);
    now += t.tRC + t.tRP;
  }

  EXPECT_FALSE(telem_.flip_events().empty());
  EXPECT_GT(telem_.snapshot().value_or("flip.rowhammer_bits", -1.0), 0.0);
  EXPECT_GT(telem_.snapshot().value_or("flip.events", -1.0), 0.0);
  const auto& e = telem_.flip_events().front();
  EXPECT_GT(e.rowhammer_bits, 0u);
  EXPECT_GT(e.disturbance, 0.0);
  const MetricsSnapshot snap = telem_.snapshot();
  const auto* hist = snap.find("flip.bits_per_event");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->value, 0.0);
}

TEST_F(TelemetryIntegrationTest, DetachedDeviceRecordsNothing) {
  device_.set_telemetry(nullptr);
  auto b = builder();
  b.ldi(0, 7);
  b.act(0, 0);
  b.sleep(static_cast<std::int64_t>(device_.timings().tRAS));
  b.pre(0);
  (void)executor_.run(b.take(), 0, 0, 0);
  EXPECT_EQ(telem_.total_acts(), 0u);
  EXPECT_EQ(telem_.trace().size(), 0u);
}

}  // namespace
}  // namespace rh::telemetry
