//===- bench/fig07_machine_configs.cpp - Figure 7 -------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Figure 7: the target system configurations. Prints the two simulated
// microarchitecture presets standing in for the paper's Intel Core2 Q6600
// desktop and Intel Atom N270 netbook, plus a micro-probe showing their
// behavioural differences.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "machine/MachineModel.h"

using namespace brainy;
using namespace brainy::bench;

static std::string cacheStr(const CacheGeometry &G) {
  return formatStr("%llu KB, %u-way, %uB lines",
                   (unsigned long long)(G.SizeBytes / 1024), G.Associativity,
                   G.BlockBytes);
}

int main() {
  banner("Figure 7", "target system configurations (simulated)");

  TextTable Table;
  Table.setHeader({"parameter", "core2 (desktop)", "atom (laptop)"});
  MachineConfig C2 = MachineConfig::core2();
  MachineConfig AT = MachineConfig::atom();
  Table.addRow({"modelled CPU", "Intel Core2 Quad Q6600 2.4 GHz",
                "Intel Atom N270 1.6 GHz"});
  Table.addRow({"L1 data cache", cacheStr(C2.L1), cacheStr(AT.L1)});
  Table.addRow({"L2 unified cache", cacheStr(C2.L2), cacheStr(AT.L2)});
  Table.addRow({"L1 hit latency", formatStr("%.0f cyc", C2.L1HitCycles),
                formatStr("%.0f cyc", AT.L1HitCycles)});
  Table.addRow({"streamed L1 hit", formatStr("%.1f cyc", C2.StreamHitCycles),
                formatStr("%.1f cyc", AT.StreamHitCycles)});
  Table.addRow({"L2 hit latency", formatStr("%.0f cyc", C2.L2HitCycles),
                formatStr("%.0f cyc", AT.L2HitCycles)});
  Table.addRow({"memory latency", formatStr("%.0f cyc", C2.MemoryCycles),
                formatStr("%.0f cyc", AT.MemoryCycles)});
  Table.addRow({"exposed miss fraction", formatDouble(C2.MissExposure, 2),
                formatDouble(AT.MissExposure, 2)});
  Table.addRow({"prefetch depth", formatStr("%u lines", C2.PrefetchDepth),
                formatStr("%u lines", AT.PrefetchDepth)});
  Table.addRow({"mispredict penalty",
                formatStr("%.0f cyc", C2.MispredictPenalty),
                formatStr("%.0f cyc", AT.MispredictPenalty)});
  Table.addRow({"base CPI", formatDouble(C2.BaseCpi, 2),
                formatDouble(AT.BaseCpi, 2)});
  Table.addRow({"clock", formatStr("%.1f GHz", C2.ClockGhz),
                formatStr("%.1f GHz", AT.ClockGhz)});
  Table.print();

  // Behavioural probe: per-access cost of three canonical patterns.
  std::printf("\nprobe: average cycles per access (64K touches)\n");
  TextTable Probe;
  Probe.setHeader({"pattern", "core2", "atom"});
  auto Run = [](const MachineConfig &Cfg, bool Sequential, uint64_t Span) {
    MachineModel M(Cfg);
    uint64_t Lcg = 9;
    for (uint64_t I = 0; I != 65536; ++I) {
      uint64_t Addr;
      if (Sequential) {
        Addr = (I * 64) % Span;
      } else {
        Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        Addr = (Lcg >> 16) % Span;
      }
      M.events().access(Addr, 8);
    }
    return M.cycles() / 65536;
  };
  for (auto [Name, Seq, Span] :
       {std::tuple{"sequential 2MB scan", true, uint64_t(2 << 20)},
        std::tuple{"random in 256KB", false, uint64_t(256 << 10)},
        std::tuple{"random in 2MB", false, uint64_t(2 << 20)}}) {
    Probe.addRow({Name, formatDouble(Run(C2, Seq, Span), 2),
                  formatDouble(Run(AT, Seq, Span), 2)});
  }
  Probe.print();
  std::printf("\n(the 512KB-vs-4MB L2 gap and the in-order exposure are what "
              "flip data-structure winners between the machines)\n");
  return 0;
}
