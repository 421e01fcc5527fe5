#pragma once
/// Shared fixture for the selection suites: small ad-hoc random SI
/// libraries over all-rotatable catalogs (2–5 Atom types, 1–3 SIs, 1–4
/// Molecule options each, counts 0–2). The rng stream is part of the
/// contract — every suite seeded with the same value sees the same library.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/util/rng.hpp"

namespace selection_fixture {

inline rispp::isa::SiLibrary random_library(rispp::util::Xoshiro256& rng) {
  using rispp::atom::Molecule;
  const std::size_t atoms = 2 + rng.below(4);
  std::vector<rispp::isa::AtomInfo> infos;
  for (std::size_t a = 0; a < atoms; ++a) {
    infos.push_back({.name = "A" + std::to_string(a),
                     .hardware = {},
                     .rotatable = true});
    // A real transfer size so manager-level properties rotate over nonzero
    // windows; constant (no rng draw) to keep the random stream — and the
    // libraries every existing property test sees — unchanged.
    infos.back().hardware.bitstream_bytes = 30000;
  }
  rispp::isa::AtomCatalog cat(std::move(infos));

  const std::size_t sis = 1 + rng.below(3);
  std::vector<rispp::isa::SpecialInstruction> list;
  for (std::size_t s = 0; s < sis; ++s) {
    const std::uint32_t sw = 200 + static_cast<std::uint32_t>(rng.below(800));
    std::vector<rispp::isa::MoleculeOption> options;
    const std::size_t count = 1 + rng.below(4);
    std::uint32_t cycles = sw / (2 + static_cast<std::uint32_t>(rng.below(8)));
    for (std::size_t m = 0; m < count; ++m) {
      Molecule mol(cat.size());
      bool nonzero = false;
      for (std::size_t a = 0; a < cat.size(); ++a) {
        const auto c = rng.below(3);
        mol.set(a, static_cast<rispp::atom::Count>(c));
        nonzero |= c > 0;
      }
      if (!nonzero) mol.set(rng.below(cat.size()), 1);
      options.push_back({mol, std::max<std::uint32_t>(cycles, 1)});
      cycles = std::max<std::uint32_t>(cycles / 2, 1);  // later = faster-ish
    }
    list.emplace_back("S" + std::to_string(s), sw, std::move(options));
  }
  return rispp::isa::SiLibrary(std::move(cat), std::move(list));
}

}  // namespace selection_fixture
