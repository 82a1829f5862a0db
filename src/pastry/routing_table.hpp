#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/sim_time.hpp"
#include "pastry/node_arena.hpp"
#include "pastry/types.hpp"

namespace mspastry::pastry {

/// The routing-table slot (row, col) that `candidate` occupies in a table
/// owned by `owner`: row = shared prefix length, col = candidate's next
/// digit. Returns row == -1 when the ids are identical.
inline std::pair<int, int> slot_for(NodeId owner, NodeId candidate, int b) {
  const int r = owner.shared_prefix_length(candidate, b);
  if (r >= NodeId::digit_count(b)) return {-1, -1};
  return {r, static_cast<int>(candidate.digit(r, b))};
}

/// A Pastry routing table: 128/b rows by 2^b columns. The entry at (r, c)
/// is a node whose identifier shares the first r digits with the local
/// identifier and has digit r equal to c. Each entry remembers the
/// measured round-trip delay to the node (kTimeNever if not yet measured)
/// so proximity neighbour selection can compare candidates.
///
/// Rows live in a NodeArena (see node_arena.hpp): the table itself holds
/// only a 128/b-wide array of row handles, allocating a row on first
/// insert and releasing it when its last entry is removed. Only
/// ~log_2^b(N) rows are ever populated, so per-node footprint is a few
/// rows instead of the full grid, and at N = 10,000 the difference is
/// the bulk of simulation RSS. Address-keyed lookups scan the populated
/// rows (a few cache lines) instead of consulting a per-node hash map.
///
/// As with LeafSet, this is pure state: insertion policy (PNS, the
/// heard-directly rule) is enforced by PastryNode.
class RoutingTable {
 public:
  using Entry = RouteEntry;

  /// `arena` is the row slab shared by every node of a simulation (its
  /// column width must be 2^b); pass nullptr — tests, standalone use —
  /// and the table owns a private arena.
  RoutingTable(NodeId self, int b, NodeArena* arena = nullptr);
  ~RoutingTable();

  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;

  int rows() const { return static_cast<int>(rows_.size()); }
  int cols() const { return 1 << b_; }
  NodeId self() const { return self_; }

  /// Entry at (row, col), or nullptr if empty. The column matching the
  /// local id's digit in each row is always empty (it denotes the local
  /// node itself).
  const Entry* get(int row, int col) const;

  /// The slot a given id belongs in: (shared-prefix row, next digit).
  /// Returns row == -1 for the local id itself.
  std::pair<int, int> slot_of(NodeId id) const;

  /// Fill the slot for `d` if it is empty. Never replaces. Returns true
  /// if inserted. Used for join-time seeding and passive repair, where no
  /// distance measurement is available yet.
  bool add(const NodeDescriptor& d);

  /// Insert with a measured RTT. If the slot is occupied: replace when
  /// `pns` and the new node is closer (or the incumbent has no
  /// measurement), else keep the incumbent. Refreshing the RTT of the
  /// incumbent itself always succeeds. Returns true if the table changed.
  bool add_with_rtt(const NodeDescriptor& d, SimDuration rtt, bool pns);

  /// Update the measured RTT of an existing entry (no-op otherwise).
  void update_rtt(net::Address a, SimDuration rtt);

  bool remove(net::Address a);
  bool contains(net::Address a) const { return scan(a) != nullptr; }

  /// Entry holding address `a`, or nullptr.
  const Entry* find(net::Address a) const { return scan(a); }

  /// All non-empty entries of one row. Inline-capacity vector: a row has
  /// at most 2^b - 1 entries, so this never heap-allocates for b <= 4.
  RowVec row_entries(int row) const;

  /// Deepest row with at least one entry; -1 if the table is empty.
  int deepest_row() const;

  std::size_t entry_count() const { return count_; }

  /// Visit every entry: f(row, col, entry).
  template <class F>
  void for_each(F&& f) const {
    for (int r = 0; r < rows(); ++r) {
      const std::uint32_t h = rows_[static_cast<std::size_t>(r)];
      if (h == NodeArena::kNullRow) continue;
      const Entry* base = arena_->row(h);
      for (int c = 0; c < cols(); ++c) {
        if (base[c].node.valid()) f(r, c, base[c]);
      }
    }
  }

 private:
  /// Occupied slot at (row, col), or nullptr (row missing or slot empty).
  Entry* peek(int row, int col);

  /// Slot at (row, col) for writing, allocating the row if needed.
  Entry* ensure(int row, int col);

  /// Entry holding `a`, scanning populated rows; reports its slot.
  const Entry* scan(net::Address a, int* row_out = nullptr,
                    int* col_out = nullptr) const;

  NodeId self_;
  int b_;
  NodeArena* arena_;                 // shared, or owned_ below
  std::unique_ptr<NodeArena> owned_;
  std::vector<std::uint32_t> rows_;  // per-row handle or NodeArena::kNullRow
  std::size_t count_ = 0;
};

}  // namespace mspastry::pastry
