#include "core/plan.hpp"

namespace mcs::fi {

TestPlan paper_medium_trap_plan() {
  TestPlan plan;
  plan.name = "medium/non-root/arch_handle_trap";
  plan.target = jh::HookPoint::ArchHandleTrap;
  plan.fault = FaultModelKind::SingleBitFlip;
  plan.rate = kMediumRate;
  plan.cpu_filter = 1;  // the FreeRTOS cell's CPU
  plan.duration_ticks = kOneMinuteTicks;
  plan.runs = 100;
  plan.inject_during_boot = false;
  return plan;
}

TestPlan paper_high_root_hvc_plan() {
  TestPlan plan;
  plan.name = "high/root/arch_handle_hvc";
  plan.scenario = "inject-during-boot";
  plan.target = jh::HookPoint::ArchHandleHvc;
  plan.fault = FaultModelKind::MultiRegisterFlip;
  plan.rate = kHighRate;
  plan.phase = 1;  // arm on the first management hypercall
  plan.cpu_filter = 0;
  plan.duration_ticks = kOneMinuteTicks;
  plan.runs = 20;
  plan.inject_during_boot = true;
  return plan;
}

TestPlan paper_high_root_trap_plan() {
  TestPlan plan = paper_high_root_hvc_plan();
  plan.name = "high/root/arch_handle_trap";
  plan.target = jh::HookPoint::ArchHandleTrap;
  return plan;
}

TestPlan paper_high_nonroot_plan() {
  TestPlan plan;
  plan.name = "high/non-root/cpu1";
  plan.scenario = "inject-during-boot";
  plan.target = jh::HookPoint::ArchHandleTrap;
  plan.fault = FaultModelKind::MultiRegisterFlip;
  plan.rate = kHighRate;
  plan.phase = 1;  // the first CPU 1 entry is the hot-plug bring-up
  plan.cpu_filter = 1;
  plan.duration_ticks = kOneMinuteTicks;
  plan.runs = 20;
  plan.inject_during_boot = true;
  return plan;
}

TestPlan irq_vector_plan() {
  TestPlan plan;
  plan.name = "irq-vector/irqchip_handle_irq";
  plan.target = jh::HookPoint::IrqchipHandleIrq;
  plan.fault = FaultModelKind::SingleBitFlip;
  plan.fault_registers = {arch::Reg::R0};  // the vector-number parameter
  plan.rate = kMediumRate;
  plan.cpu_filter = -1;
  plan.duration_ticks = kOneMinuteTicks;
  plan.runs = 30;
  plan.inject_during_boot = false;
  return plan;
}

}  // namespace mcs::fi
