// cellctl: the `jailhouse` management CLI against the simulated board —
// parse a .cell text config (file argument or the built-in FreeRTOS one),
// create/start the cell, watch it, shut it down, destroy it, and export
// campaign-grade artefacts.
//
//   $ ./cellctl [config.cell]
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/trace.hpp"
#include "core/testbed.hpp"
#include "hypervisor/config_text.hpp"

int main(int argc, char** argv) {
  using namespace mcs;

  // 1. Obtain the cell config: file or built-in.
  jh::CellConfig config;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = jh::parse_cell_config(buffer.str());
    if (!parsed.is_ok()) {
      std::cerr << "config error: " << parsed.status() << "\n";
      return 1;
    }
    config = std::move(parsed).value();
  } else {
    config = jh::make_freertos_cell_config();
    std::cout << "(no config given; using the built-in FreeRTOS cell)\n";
  }
  std::cout << "parsed cell '" << config.name << "': " << config.cpus.size()
            << " cpu(s), " << config.mem_regions.size() << " region(s), "
            << config.irqs.size() << " irq(s)\n\n";

  // 2. Board + hypervisor + root cell.
  fi::Testbed testbed;
  if (const util::Status status = testbed.enable_hypervisor(); !status.is_ok()) {
    std::cerr << "enable failed: " << status << "\n";
    return 1;
  }
  testbed.hypervisor().register_config(fi::kFreeRtosConfigAddr, config);

  // 3. jailhouse cell create && jailhouse cell start.
  testbed.boot_freertos_cell();
  jh::Cell* cell = testbed.freertos_cell();
  if (cell == nullptr) {
    std::cerr << "cell create failed: "
              << testbed.linux_root().last_result(jh::Hypercall::CellCreate)
              << "\n";
    return 1;
  }
  std::cout << "$ jailhouse cell list\n";
  for (jh::Cell* c : testbed.hypervisor().cells()) {
    std::cout << "  " << c->id() << "  " << c->name() << "  "
              << jh::cell_state_name(c->state()) << "\n";
  }

  // 4. Let it run, report health.
  testbed.run(3'000);
  std::cout << "\nafter 3 s: USART bytes=" << testbed.board().uart1().total_bytes()
            << ", LED toggles=" << testbed.board().gpio().led_toggles()
            << ", stage-2 faults=" << cell->stage2_faults()
            << ", hypercalls=" << cell->hypercalls() << "\n";

  // 5. Clean teardown.
  testbed.shutdown_freertos_cell();
  std::cout << "\n$ jailhouse cell shutdown " << cell->name() << " -> "
            << jh::cell_state_name(testbed.freertos_cell()->state()) << "\n";
  testbed.destroy_freertos_cell();
  std::cout << "$ jailhouse cell destroy -> cells="
            << testbed.hypervisor().cells().size() << "\n";

  // 6. The config as this tool would archive it.
  std::cout << "\n-- archived config --------------------------------\n"
            << jh::to_text(config);
  return 0;
}
