#pragma once
/// \file si_library.hpp
/// \brief A compiled application's Special Instruction set: the catalog of
/// Atom types plus every SI with its Molecule options.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rispp/isa/atom_catalog.hpp"
#include "rispp/isa/special_instruction.hpp"

namespace rispp::isa {

class SiLibrary {
 public:
  SiLibrary(AtomCatalog catalog, std::vector<SpecialInstruction> sis);

  /// The H.264 case-study library: HT_2x2, HT_4x4, DCT_4x4, SATD_4x4 with
  /// the 30 Molecule compositions of the paper's Table 2 (cell values
  /// reconstructed where the available scan is illegible; see EXPERIMENTS.md
  /// "Table 2" for the per-cell provenance).
  static SiLibrary h264();

  /// h264() plus the SAD SI the paper sketches for Integer-Pixel Motion
  /// Estimation ("QuadSub and SATD can also be combined to form an SI that
  /// can execute the SAD operation") — the future-work extension that
  /// attacks the Amdahl limit of Fig 12.
  static SiLibrary h264_with_sad();

  /// The frame-level library behind the Fig-1 study: all of h264_with_sad()
  /// plus Motion Compensation (MC_HPEL_4x4, MC_QPEL_4x4 over SixTap/Clip
  /// Atoms) and Loop Filter (LF_EDGE_4 over EdgeFilter/Clip) — one SI
  /// cluster per functional block (ME / MC / TQ / LF), so a whole encode
  /// frame rotates through several incompatible hot spots. The three extra
  /// Atoms carry synthetic synthesis data (documented in DESIGN.md §2).
  static SiLibrary h264_frame();

  const AtomCatalog& catalog() const { return catalog_; }
  const std::vector<SpecialInstruction>& sis() const { return sis_; }

  const SpecialInstruction& find(const std::string& name) const;
  bool contains(const std::string& name) const;
  std::size_t index_of(const std::string& name) const;
  const SpecialInstruction& at(std::size_t i) const;
  std::size_t size() const { return sis_.size(); }

  /// catalog().project_rotatable() of every Molecule option of SI `si`, in
  /// options() order. Computed once at construction: the library is
  /// immutable, so every selector, manager and simulator sharing it reads
  /// the same table instead of re-projecting per candidate.
  std::span<const atom::Molecule> rotatable_options(std::size_t si) const;

  /// Cycles SI `si` takes given `loaded` Atoms: the fastest option whose
  /// rotatable projection is ≤ `loaded`, else the software Molecule. Same
  /// value as at(si).cycles_with(loaded, catalog()), read from the table.
  std::uint32_t cycles_with(std::size_t si, const atom::Molecule& loaded) const;

 private:
  AtomCatalog catalog_;
  std::vector<SpecialInstruction> sis_;
  std::vector<std::vector<atom::Molecule>> rotatable_;  ///< by SI, by option
};

/// Moves a library value into the immutable shared snapshot form that the
/// thread-safe APIs (Simulator, RisppManager, exp::Platform) take: nobody
/// can mutate it (const) and nobody can destroy it early (shared_ptr).
inline std::shared_ptr<const SiLibrary> share(SiLibrary lib) {
  return std::make_shared<const SiLibrary>(std::move(lib));
}

/// Non-owning view of a caller-kept library, in the same shared-snapshot
/// type. The caller must keep `lib` alive for as long as any component
/// holds the pointer — the old reference-parameter contract, but stated
/// explicitly at the call site instead of hidden in an overload. Fine for
/// stack-local single-thread runs; sweeps and anything that outlives the
/// scope should use share() / exp::Platform.
inline std::shared_ptr<const SiLibrary> borrow(const SiLibrary& lib) {
  return std::shared_ptr<const SiLibrary>(std::shared_ptr<const SiLibrary>{},
                                          &lib);
}

}  // namespace rispp::isa
