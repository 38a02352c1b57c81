#include "guests/osek_image.hpp"

#include "hypervisor/hypercall.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/ivshmem.hpp"

namespace mcs::guest {
namespace {

/// Body-table entry calling member body `Fn` on the OS's owner.
template <void (OsekImage::*Fn)(osek::TaskContext&)>
void bound(void* owner, osek::TaskContext& ctx) {
  (static_cast<OsekImage*>(owner)->*Fn)(ctx);
}

}  // namespace

void OsekImage::on_start(jh::GuestContext& ctx) {
  ctx.console_puts("AUTOSAR-classic OS (OSEK BCC1) up in cell '" +
                   std::string(ctx.cell().name()) + "'\n");
  ctx.start_periodic_timer(1);
  if (state_.configured) return;
  declare_workload();
  state_.configured = true;
  ctx.console_puts("OSEK: " + std::to_string(os_.task_count()) +
                   " tasks declared\n");
}

const osek::StepFn OsekImage::kSteps[4] = {
    &bound<&OsekImage::brake_acq_step>, &bound<&OsekImage::frame_tx_step>,
    &bound<&OsekImage::wdg_kick_step>, &bound<&OsekImage::self_test_step>};

void OsekImage::declare_workload() {
  // 10 ms brake-pressure acquisition: sample, range-check, filter.
  const osek::TaskId brake = os_.declare_task(4, kBrakeAcqStep);
  // 50 ms frame transmit: length-checked line on the cell console.
  const osek::TaskId frame = os_.declare_task(3, kFrameTxStep);
  // 100 ms alive supervision: the classical external-watchdog kick.
  const osek::TaskId wdg = os_.declare_task(2, kWdgKickStep);
  // Idle-level self-test task: declared (so it counts in the task table)
  // but never activated — no alarm and no chain reaches it.
  (void)os_.declare_task(1, kSelfTestStep);

  (void)os_.set_rel_alarm(os_.declare_alarm(brake), 10, 10);
  (void)os_.set_rel_alarm(os_.declare_alarm(frame), 50, 50);
  (void)os_.set_rel_alarm(os_.declare_alarm(wdg), 100, 100);
}

void OsekImage::brake_acq_step(osek::TaskContext&) {
  // Triangle-wave "ADC" with a plausibility check (ISO 26262 E/E
  // mitigation at the application level).
  state_.pressure_raw = (state_.pressure_raw + 0x31) & 0xfff;
  // Cannot happen unless corrupted.
  if (state_.pressure_raw > 0xfff) ++state_.errors;
  ++state_.samples;
}

void OsekImage::frame_tx_step(osek::TaskContext&) {
  ++state_.frame_seq;
  ++state_.frames;
  state_.pending_frame = true;
}

void OsekImage::wdg_kick_step(osek::TaskContext&) { ++state_.kicks; }

void OsekImage::self_test_step(osek::TaskContext&) {
  if ((state_.pressure_raw & 0xfff) != state_.pressure_raw) ++state_.errors;
}

void OsekImage::run_quantum(jh::GuestContext& ctx) {
  ++state_.quantum_counter;
  // Run all pending activations to completion (OSEK tasks are short).
  for (int i = 0; i < 4; ++i) {
    if (!os_.dispatch().has_value()) break;
  }
  // Console output happens at quantum level so a parked CPU stops
  // transmitting exactly like the FreeRTOS cell does.
  if (state_.pending_frame) {
    state_.pending_frame = false;
    ctx.console_puts("frame " + std::to_string(state_.frame_seq) + " len=8 ok\n");
  }
  if (state_.quantum_counter % 750 == 0) {
    (void)ctx.hypercall(
        static_cast<std::uint32_t>(jh::Hypercall::DebugConsolePutc),
        static_cast<std::uint32_t>('*'));
  }
  if (state_.quantum_counter % 1500 == 500) {
    (void)ctx.mmio_read_u32(jh::kGicDistBase + 0x104);
  }
}

void OsekImage::on_timer(jh::GuestContext& ctx) {
  (void)ctx;
  os_.on_counter_tick();
}

void OsekImage::on_irq(jh::GuestContext& ctx, std::uint32_t irq) {
  (void)ctx;
  if (irq == jh::kIvshmemDoorbellSgi) {
    // ivshmem peer rang: a CAN-gateway task would drain the ring here.
    ++state_.doorbells;
    return;
  }
  // Any other delivered vector is counted and ignored (predictable error
  // handling, as §III expects from corrupted IRQ vectors).
  ++state_.unknown_irqs;
}

}  // namespace mcs::guest
