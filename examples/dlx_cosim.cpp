/// DLX co-simulation example — the paper's actual system shape: a DLX-like
/// core runs a compiled binary whose `si` opcodes hit the rotating
/// instruction set. One binary, two machines: without the RISPP manager
/// every SI costs its software Molecule; with it, the Forecast point at the
/// loop head triggers rotations and the same loop upgrades to hardware
/// mid-flight.
///
/// The program is a miniature motion-estimation kernel in assembly: SATD
/// over 16 candidate blocks, tracking the minimum.

#include <iostream>
#include <sstream>

#include "rispp/dlx/assembler.hpp"
#include "rispp/dlx/cpu.hpp"
#include "rispp/dlx/h264_binding.hpp"
#include "rispp/util/rng.hpp"

namespace {

std::string build_source() {
  // Data layout: current block at byte 0 (16 words), then 16 candidate
  // blocks of 16 words each starting at byte 64.
  rispp::util::Xoshiro256 rng(99);
  std::ostringstream src;
  src << "  .data";
  for (int i = 0; i < 16; ++i) src << " " << rng.range(90, 160);
  src << "\n";
  for (int cand = 0; cand < 16; ++cand) {
    src << "  .data";
    for (int i = 0; i < 16; ++i) src << " " << rng.range(90, 160);
    src << "\n";
  }
  src << R"(
; --- miniature ME kernel: best-of-16 SATD search, repeated 64 times ---
        forecast SATD_4x4, 1024
        addi r10, r0, 64        ; outer repetitions (64 "sub-blocks")
outer:  addi r1, r0, 0          ; r1 = cur block address
        addi r2, r0, 64         ; r2 = candidate address
        addi r3, r0, 16         ; r3 = candidates left
        addi r8, r0, 0x7fff     ; r8 = best SATD so far
best:   si   SATD_4x4 r4, r1, r2
        bge  r4, r8, skip
        add  r8, r4, r0         ; new minimum
skip:   addi r2, r2, 64         ; next candidate
        addi r3, r3, -1
        bne  r3, r0, best
        addi r10, r10, -1
        bne  r10, r0, outer
        print r8                ; best SATD of the last repetition
        halt
)";
  return src.str();
}

}  // namespace

int main() {
  const auto lib = rispp::isa::SiLibrary::h264();
  const auto program = rispp::dlx::assemble(build_source());
  std::cout << "assembled " << program.code.size() << " instructions, "
            << program.data.size() << " data words\n\n";

  // --- run 1: plain core, software Molecules only ---
  rispp::dlx::Cpu plain(lib, nullptr);
  plain.load(program);
  rispp::dlx::bind_h264_sis(plain, lib);
  plain.run();

  // --- run 2: the same binary on the RISPP platform ---
  rispp::rt::RtConfig cfg;
  cfg.atom_containers = 4;
  rispp::rt::RisppManager manager(borrow(lib), cfg);
  rispp::dlx::Cpu rispp_core(lib, &manager);
  rispp_core.load(program);
  rispp::dlx::bind_h264_sis(rispp_core, lib);
  rispp_core.run();

  std::cout << "plain core : " << plain.cycles() << " cycles ("
            << plain.si_usage().at("SATD_4x4").sw << " SI execs, all SW)\n";
  const auto& usage = rispp_core.si_usage().at("SATD_4x4");
  std::cout << "RISPP core : " << rispp_core.cycles() << " cycles ("
            << usage.sw << " SW + " << usage.hw << " HW SI execs, "
            << manager.rotations_performed() << " rotations)\n";
  std::cout << "speed-up   : "
            << static_cast<double>(plain.cycles()) /
                   static_cast<double>(rispp_core.cycles())
            << "x\n";
  std::cout << "identical result: best SATD = " << plain.prints().front()
            << " on both ("
            << (plain.prints() == rispp_core.prints() ? "match" : "MISMATCH")
            << ")\n";
  return plain.prints() == rispp_core.prints() ? 0 : 1;
}
