#include "rispp/isa/si_library.hpp"

#include <algorithm>

#include "rispp/util/error.hpp"

namespace rispp::isa {

SiLibrary::SiLibrary(AtomCatalog catalog, std::vector<SpecialInstruction> sis)
    : catalog_(std::move(catalog)), sis_(std::move(sis)) {
  RISPP_REQUIRE(!sis_.empty(), "SI library must not be empty");
  for (const auto& si : sis_)
    for (const auto& o : si.options())
      RISPP_REQUIRE(o.atoms.dimension() == catalog_.size(),
                    "molecule dimension does not match catalog: " + si.name());
  for (std::size_t i = 0; i < sis_.size(); ++i)
    for (std::size_t j = i + 1; j < sis_.size(); ++j)
      RISPP_REQUIRE(sis_[i].name() != sis_[j].name(),
                    "duplicate SI name: " + sis_[i].name());
  rotatable_.reserve(sis_.size());
  for (const auto& si : sis_) {
    auto& projected = rotatable_.emplace_back();
    projected.reserve(si.options().size());
    for (const auto& o : si.options())
      projected.push_back(catalog_.project_rotatable(o.atoms));
  }
}

namespace {

// Catalog component order (must match AtomCatalog::h264()):
//   0 Load | 1 QuadSub | 2 Pack | 3 Transform | 4 SATD | 5 Add | 6 Store
atom::Molecule mol(atom::Count load, atom::Count quadsub, atom::Count pack,
                   atom::Count transform, atom::Count satd, atom::Count add,
                   atom::Count store) {
  return atom::Molecule{load, quadsub, pack, transform, satd, add, store};
}

/// Table 2, column group HT2x2 — a single Molecule: the 2x2 Hadamard SI
/// "constitutes only one Atom" (one Transform instance) plus static movers.
SpecialInstruction make_ht2x2() {
  return SpecialInstruction(
      "HT_2x2", /*software_cycles=*/60,
      {
          {mol(1, 0, 0, 1, 0, 1, 1), 5},
      });
}

/// Table 2, column group HT4X4 — 6 Molecules, cycles 22/17/17/12/11/8.
SpecialInstruction make_ht4x4() {
  return SpecialInstruction(
      "HT_4x4", /*software_cycles=*/298,
      {
          {mol(1, 0, 1, 1, 0, 1, 1), 22},
          {mol(1, 0, 1, 2, 0, 1, 1), 17},
          {mol(2, 0, 2, 1, 0, 1, 1), 17},
          {mol(2, 0, 2, 2, 0, 1, 1), 12},
          {mol(4, 0, 4, 2, 0, 1, 1), 11},
          {mol(4, 0, 4, 4, 0, 1, 1), 8},
      });
}

/// Table 2, column group DCT4X4 — 8 Molecules, cycles 24/23/19/15/18/12/12/9.
/// Note the set is not latency-sorted and contains dominated entries
/// (e.g. the 18-cycle Molecule); Pareto extraction handles that, exactly as
/// Fig 13 highlights only the non-dominated line.
SpecialInstruction make_dct4x4() {
  return SpecialInstruction(
      "DCT_4x4", /*software_cycles=*/488,
      {
          {mol(1, 1, 1, 1, 0, 1, 1), 24},
          {mol(1, 1, 1, 2, 0, 1, 1), 23},
          {mol(2, 2, 1, 1, 0, 1, 1), 19},
          {mol(2, 2, 1, 2, 0, 1, 1), 15},
          {mol(4, 4, 2, 1, 0, 1, 1), 18},
          {mol(4, 4, 2, 2, 0, 1, 1), 12},
          {mol(4, 4, 4, 2, 0, 1, 1), 12},
          {mol(4, 4, 4, 4, 0, 1, 1), 9},
      });
}

/// Table 2, column group SATD4X4 — 15 Molecules; the block diagram of Fig 8.
/// Minimal requirement is one Atom of each compute kind (QuadSub, Pack,
/// Transform, SATD) at 24 cycles; the fully spatial Molecule reaches 12.
SpecialInstruction make_satd4x4() {
  return SpecialInstruction(
      "SATD_4x4", /*software_cycles=*/544,
      {
          {mol(1, 1, 1, 1, 1, 1, 0), 24},
          {mol(1, 1, 1, 2, 1, 1, 0), 22},
          {mol(1, 1, 1, 2, 2, 1, 0), 22},
          {mol(2, 2, 1, 1, 1, 1, 0), 20},
          {mol(2, 2, 1, 2, 1, 1, 0), 18},
          {mol(2, 2, 1, 2, 2, 1, 0), 18},
          {mol(4, 4, 2, 1, 1, 1, 0), 17},
          {mol(4, 4, 2, 2, 1, 1, 0), 15},
          {mol(4, 4, 2, 2, 2, 1, 0), 14},
          {mol(4, 4, 4, 2, 1, 1, 0), 15},
          {mol(4, 4, 4, 2, 2, 1, 0), 14},
          {mol(4, 4, 4, 4, 1, 1, 0), 14},
          {mol(4, 4, 4, 4, 2, 1, 0), 13},
          {mol(4, 4, 4, 2, 4, 1, 0), 13},
          {mol(4, 4, 4, 4, 4, 1, 0), 12},
      });
}

/// The paper's sketched SAD SI for Integer-Pixel ME: QuadSub feeding the
/// SATD Atom's absolute-accumulate path, no transform stage. Latencies are
/// scaled from SATD_4x4 by removing the Transform/Pack stages.
SpecialInstruction make_sad4x4() {
  return SpecialInstruction(
      "SAD_4x4", /*software_cycles=*/316,
      {
          {mol(1, 1, 0, 0, 1, 1, 0), 14},
          {mol(2, 2, 0, 0, 1, 1, 0), 11},
          {mol(2, 2, 0, 0, 2, 1, 0), 10},
          {mol(4, 4, 0, 0, 2, 1, 0), 8},
          {mol(4, 4, 0, 0, 4, 1, 0), 7},
      });
}

}  // namespace

SiLibrary SiLibrary::h264() {
  return SiLibrary(AtomCatalog::h264(),
                   {make_ht2x2(), make_ht4x4(), make_dct4x4(), make_satd4x4()});
}

SiLibrary SiLibrary::h264_with_sad() {
  return SiLibrary(AtomCatalog::h264(), {make_ht2x2(), make_ht4x4(),
                                         make_dct4x4(), make_satd4x4(),
                                         make_sad4x4()});
}

const SpecialInstruction& SiLibrary::find(const std::string& name) const {
  return at(index_of(name));
}

bool SiLibrary::contains(const std::string& name) const {
  return std::any_of(sis_.begin(), sis_.end(), [&](const SpecialInstruction& s) {
    return s.name() == name;
  });
}

std::size_t SiLibrary::index_of(const std::string& name) const {
  const auto it =
      std::find_if(sis_.begin(), sis_.end(), [&](const SpecialInstruction& s) {
        return s.name() == name;
      });
  RISPP_REQUIRE(it != sis_.end(), "unknown SI: " + name);
  return static_cast<std::size_t>(it - sis_.begin());
}

const SpecialInstruction& SiLibrary::at(std::size_t i) const {
  RISPP_REQUIRE(i < sis_.size(), "SI index out of range");
  return sis_[i];
}

std::span<const atom::Molecule> SiLibrary::rotatable_options(
    std::size_t si) const {
  RISPP_REQUIRE(si < rotatable_.size(), "SI index out of range");
  return rotatable_[si];
}

std::uint32_t SiLibrary::cycles_with(std::size_t si,
                                     const atom::Molecule& loaded) const {
  const auto& options = at(si).options();
  const auto& projected = rotatable_[si];
  std::uint32_t best = sis_[si].software_cycles();
  bool found = false;
  for (std::size_t k = 0; k < options.size(); ++k)
    if (projected[k].leq(loaded) && (!found || options[k].cycles < best)) {
      best = options[k].cycles;
      found = true;
    }
  return best;
}

}  // namespace rispp::isa
