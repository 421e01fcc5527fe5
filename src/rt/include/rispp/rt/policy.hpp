#pragma once
/// \file policy.hpp
/// \brief Pluggable run-time policies (paper §5b/§5c as seams).
///
/// The run-time system is a pipeline of separable decisions: *which*
/// configuration to converge to (Molecule selection) and *which* container
/// to sacrifice for the next rotation (Atom replacement). This header makes
/// both decisions explicit strategy interfaces so that benches, tools and
/// DSE sweeps can inject alternatives without touching the reallocation
/// kernel:
///
///  * SelectionPolicy   — plans a target configuration plus the greedy step
///    order that makes SIs come online gradually ("Rotation in Advance").
///    Implementations: GreedySelector, ExhaustiveSelector (selection.hpp).
///  * ReplacementPolicy — picks the rotation victim among the *expendable*
///    candidates (containers whose committed content exceeds the target;
///    needed Atoms are never evicted, empty containers are always taken
///    first). Implementations: LRU, MRU, round-robin (this header).
///
/// Policies are constructed through a string-keyed factory
/// (make_selection_policy / make_replacement_policy), which is what the
/// `--selector=` / `--victim=` CLI switches of the ablation benches and
/// tools/rispp_explorer resolve against. New policies register with
/// register_selection_policy / register_replacement_policy (see DESIGN.md
/// "Run-time policy seams").

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/container.hpp"

namespace rispp::rt {

/// One forecasted SI with its run-time-updated expectation values.
struct ForecastDemand {
  std::size_t si_index = 0;
  double expected_executions = 0.0;
  double probability = 1.0;
  int task = -1;

  double weight() const { return expected_executions * probability; }
};

/// One greedy upgrade step: after loading `additional` Atoms, SI `si_index`
/// runs in `new_cycles` instead of `old_cycles`.
struct SelectionStep {
  std::size_t si_index = 0;
  atom::Molecule additional;  ///< rotatable Atoms this step adds
  std::uint32_t old_cycles = 0;
  std::uint32_t new_cycles = 0;
  double gain_per_container = 0.0;
  int task = -1;
};

struct SelectionPlan {
  atom::Molecule target;             ///< rotatable Atom configuration
  std::vector<SelectionStep> steps;  ///< in application order
};

/// Decides which Atom configuration the platform should converge to
/// (paper §5b). The plan's *step order* matters as much as the target:
/// the kernel issues rotations step by step, which is what upgrades an SI
/// software → minimal Molecule → faster Molecules (Fig 6, T4–T5).
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Plans the target configuration for `containers` AC slots. Steps start
  /// from the empty configuration; the kernel diffs the target against what
  /// is already committed.
  virtual SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                             std::uint64_t containers) const = 0;

  /// Total expected benefit (weighted cycles saved vs all-software) of a
  /// configuration for the given demands; an SI whose supported Molecule is
  /// slower than software contributes a negative saving. Shared across
  /// implementations — the cost-aware reallocation gate compares plans
  /// through it.
  double benefit(const atom::Molecule& config,
                 const std::vector<ForecastDemand>& demands) const;

  /// Factory key this policy was registered under (e.g. "greedy").
  virtual std::string_view name() const = 0;

 protected:
  explicit SelectionPolicy(const isa::SiLibrary& lib) : lib_(&lib) {}
  const isa::SiLibrary& library() const { return *lib_; }

 private:
  const isa::SiLibrary* lib_;
};

/// What a replacement policy sees per expendable container.
struct VictimCandidate {
  unsigned container = 0;
  std::size_t atom_kind = 0;  ///< committed content (catalog index)
  Cycle last_used = 0;
  int owner_task = kNoTask;
};

/// Picks the rotation victim among expendable candidates (paper §5c).
/// `pick` is only called with a non-empty candidate list, built in
/// container-id order; stateful policies (the round-robin cursor) update
/// their state inside pick — one policy instance therefore belongs to one
/// ContainerFile.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual unsigned pick(const std::vector<VictimCandidate>& candidates) = 0;
  virtual std::string_view name() const = 0;
};

/// Least-recently-used excess container (the platform default): stale Atoms
/// are the cheapest to give up. Ties break towards the lowest container id.
class LruReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(const std::vector<VictimCandidate>& candidates) override;
  std::string_view name() const override { return "lru"; }
};

/// Most-recently-used — an adversarial anti-policy for ablations.
class MruReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(const std::vector<VictimCandidate>& candidates) override;
  std::string_view name() const override { return "mru"; }
};

/// Rotating cursor over container ids: successive evictions cycle through
/// the expendable containers instead of hammering the lowest id.
class RoundRobinReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(const std::vector<VictimCandidate>& candidates) override;
  std::string_view name() const override { return "round-robin"; }

 private:
  unsigned cursor_ = 0;  ///< next container id to prefer
};

/// --- string-keyed factory ------------------------------------------------
/// Built-in keys: selection "greedy", "exhaustive"; replacement "lru",
/// "mru", "round-robin". Unknown keys throw util::PreconditionError listing
/// the registered names.

using SelectionPolicyFactory =
    std::function<std::unique_ptr<SelectionPolicy>(const isa::SiLibrary&)>;
using ReplacementPolicyFactory =
    std::function<std::unique_ptr<ReplacementPolicy>()>;

void register_selection_policy(const std::string& name,
                               SelectionPolicyFactory factory);
void register_replacement_policy(const std::string& name,
                                 ReplacementPolicyFactory factory);

std::unique_ptr<SelectionPolicy> make_selection_policy(
    const std::string& name, const isa::SiLibrary& lib);
std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    const std::string& name);

/// Registered keys, sorted — the benches print these for --selector/--victim.
std::vector<std::string> selection_policy_names();
std::vector<std::string> replacement_policy_names();

/// True when a factory is registered under `name` — config validation uses
/// these to reject unknown keys before any thread or simulation starts.
bool selection_policy_registered(const std::string& name);
bool replacement_policy_registered(const std::string& name);

/// --- devirtualization support (rt/dispatch.hpp) --------------------------
/// The reallocation kernel dispatches the built-in policies through a
/// std::variant of concrete types instead of the virtual interface, so the
/// hot path makes no virtual calls. These queries report whether a factory
/// key still resolves to the *unmodified* built-in implementation: a
/// register_*_policy() call — even one re-registering a built-in name —
/// demotes the key to Custom, and the kernel falls back to the virtual
/// object the factory produces. The string-keyed factory therefore stays
/// the single public extension point.

enum class SelectionKind { Greedy, Exhaustive, Custom };
enum class ReplacementKind { Lru, Mru, RoundRobin, Custom };

SelectionKind selection_policy_kind(const std::string& name);
ReplacementKind replacement_policy_kind(const std::string& name);

}  // namespace rispp::rt
