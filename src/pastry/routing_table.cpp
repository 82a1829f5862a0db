#include "pastry/routing_table.hpp"

#include <cassert>

namespace mspastry::pastry {

RoutingTable::RoutingTable(NodeId self, int b, NodeArena* arena)
    : self_(self), b_(b), arena_(arena) {
  assert(b >= 1 && b <= 8);
  if (arena_ == nullptr) {
    owned_ = std::make_unique<NodeArena>(1 << b);
    arena_ = owned_.get();
  }
  assert(arena_->cols() == (1 << b) && "arena row width must match 2^b");
  rows_.assign(static_cast<std::size_t>(NodeId::digit_count(b)),
               NodeArena::kNullRow);
}

RoutingTable::~RoutingTable() {
  for (const std::uint32_t h : rows_) {
    if (h != NodeArena::kNullRow) arena_->free_row(h);
  }
}

const RoutingTable::Entry* RoutingTable::get(int row, int col) const {
  if (row < 0 || row >= rows() || col < 0 || col >= cols()) return nullptr;
  const std::uint32_t h = rows_[static_cast<std::size_t>(row)];
  if (h == NodeArena::kNullRow) return nullptr;
  const Entry* e = arena_->row(h) + col;
  return e->node.valid() ? e : nullptr;
}

RoutingTable::Entry* RoutingTable::peek(int row, int col) {
  return const_cast<Entry*>(
      static_cast<const RoutingTable*>(this)->get(row, col));
}

RoutingTable::Entry* RoutingTable::ensure(int row, int col) {
  std::uint32_t& h = rows_[static_cast<std::size_t>(row)];
  if (h == NodeArena::kNullRow) h = arena_->alloc_row();
  return arena_->row(h) + col;
}

std::pair<int, int> RoutingTable::slot_of(NodeId id) const {
  const int r = self_.shared_prefix_length(id, b_);
  if (r >= rows()) return {-1, -1};  // identical id
  return {r, static_cast<int>(id.digit(r, b_))};
}

bool RoutingTable::add(const NodeDescriptor& d) {
  assert(d.valid());
  const auto [r, c] = slot_of(d.id);
  if (r < 0) return false;
  if (peek(r, c) != nullptr) return false;
  if (contains(d.addr)) return false;  // already present in another slot
  *ensure(r, c) = Entry{d, kTimeNever};
  ++count_;
  return true;
}

bool RoutingTable::add_with_rtt(const NodeDescriptor& d, SimDuration rtt,
                                bool pns) {
  assert(d.valid());
  const auto [r, c] = slot_of(d.id);
  if (r < 0) return false;
  Entry* s = peek(r, c);
  if (s != nullptr && s->node.addr == d.addr) {
    s->rtt = rtt;  // refresh measurement of the incumbent
    return true;
  }
  if (contains(d.addr)) return false;  // present in a different slot
  if (s == nullptr) {
    *ensure(r, c) = Entry{d, rtt};
    ++count_;
    return true;
  }
  // Occupied by a different node: PNS replacement if strictly closer or
  // the incumbent was never measured.
  if (pns && (s->rtt == kTimeNever || rtt < s->rtt)) {
    *s = Entry{d, rtt};
    return true;
  }
  return false;
}

void RoutingTable::update_rtt(net::Address a, SimDuration rtt) {
  const Entry* e = scan(a);
  if (e != nullptr) const_cast<Entry*>(e)->rtt = rtt;
}

bool RoutingTable::remove(net::Address a) {
  int r = -1;
  int c = -1;
  const Entry* e = scan(a, &r, &c);
  if (e == nullptr) return false;
  *const_cast<Entry*>(e) = Entry{};
  --count_;
  // Release the row once its last entry is gone, so deepest_row() can
  // read occupancy straight off the handle array.
  const std::uint32_t h = rows_[static_cast<std::size_t>(r)];
  const Entry* base = arena_->row(h);
  for (int i = 0; i < cols(); ++i) {
    if (base[i].node.valid()) return true;
  }
  arena_->free_row(h);
  rows_[static_cast<std::size_t>(r)] = NodeArena::kNullRow;
  return true;
}

const RoutingTable::Entry* RoutingTable::scan(net::Address a, int* row_out,
                                              int* col_out) const {
  for (int r = 0; r < rows(); ++r) {
    const std::uint32_t h = rows_[static_cast<std::size_t>(r)];
    if (h == NodeArena::kNullRow) continue;
    const Entry* base = arena_->row(h);
    for (int c = 0; c < cols(); ++c) {
      if (base[c].node.valid() && base[c].node.addr == a) {
        if (row_out != nullptr) *row_out = r;
        if (col_out != nullptr) *col_out = c;
        return base + c;
      }
    }
  }
  return nullptr;
}

RowVec RoutingTable::row_entries(int row) const {
  RowVec out;
  if (row < 0 || row >= rows()) return out;
  const std::uint32_t h = rows_[static_cast<std::size_t>(row)];
  if (h == NodeArena::kNullRow) return out;
  const Entry* base = arena_->row(h);
  for (int c = 0; c < cols(); ++c) {
    if (base[c].node.valid()) out.push_back(base[c].node);
  }
  return out;
}

int RoutingTable::deepest_row() const {
  for (int r = rows() - 1; r >= 0; --r) {
    if (rows_[static_cast<std::size_t>(r)] != NodeArena::kNullRow) return r;
  }
  return -1;
}

}  // namespace mspastry::pastry
