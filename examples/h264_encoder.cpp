/// H.264 encoder example: runs the *functional* Fig-7 pipeline on synthetic
/// video (real SATD search, DCT, Hadamard transforms, quantization), then
/// replays the equivalent cycle-level trace through the simulator to report
/// what the encode costs on RISPP vs pure software.

#include <iostream>

#include "rispp/h264/encoder.hpp"
#include "rispp/h264/workload.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

int main() {
  using rispp::util::TextTable;

  // --- functional encode of 4 QCIF frames ---
  const rispp::h264::VideoGenerator video(176, 144, /*seed=*/2024,
                                          /*mx=*/2, /*my=*/1, /*noise=*/3);
  const rispp::h264::Encoder encoder;

  rispp::h264::EncodeStats total;
  for (int f = 1; f <= 4; ++f) {
    const auto cur = video.frame(f);
    const auto ref = video.frame(f - 1);
    const auto st = encoder.encode_frame(cur, ref);
    std::cout << "frame " << f << ": " << st.macroblocks
              << " MBs, mean best-candidate SATD = "
              << TextTable::num(static_cast<double>(st.total_satd) /
                                    static_cast<double>(st.satd_ops / 16), 1)
              << ", nonzero coeffs = " << st.nonzero_coeffs << "\n";
    total.macroblocks += st.macroblocks;
    total.satd_ops += st.satd_ops;
    total.dct_ops += st.dct_ops;
    total.ht4_ops += st.ht4_ops;
    total.ht2_ops += st.ht2_ops;
  }
  std::cout << "\nSI mix per MB: " << total.satd_per_mb() << " SATD_4x4, "
            << total.dct_per_mb() << " DCT_4x4, "
            << static_cast<double>(total.ht4_ops) / total.macroblocks
            << " HT_4x4, "
            << static_cast<double>(total.ht2_ops) / total.macroblocks
            << " HT_2x2  (paper Fig 7: 256 / 24 / 1 / 2)\n\n";

  // --- cycle-level replay on RISPP ---
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::h264::TraceParams p;
  p.macroblocks = total.macroblocks;

  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 4;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  sim.add_task({"encoder", rispp::h264::make_encode_trace(lib, p)});
  const auto r = sim.run();

  const auto sw =
      rispp::h264::software_cycles_per_mb(lib, p.counts, p.model);
  const double per_mb =
      static_cast<double>(r.total_cycles) / static_cast<double>(p.macroblocks);
  std::cout << "cycle model (" << p.macroblocks << " MBs, 4 atom containers):\n"
            << "  optimized software : " << TextTable::grouped(static_cast<long long>(sw))
            << " cycles/MB\n"
            << "  RISPP              : " << TextTable::grouped(static_cast<long long>(per_mb))
            << " cycles/MB  ("
            << TextTable::num(static_cast<double>(sw) / per_mb, 2)
            << "x speed-up, " << r.rotations << " rotations)\n";
  return 0;
}
