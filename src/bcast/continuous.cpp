#include "bcast/continuous.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

namespace logpc::bcast {

namespace {

int posmod(Time x, int m) {
  const auto r = static_cast<int>(x % m);
  return r < 0 ? r + m : r;
}

}  // namespace

ContinuousResult plan_from_tree(const BroadcastTree& tree,
                                std::uint64_t budget, int max_wait) {
  const Params& tp = tree.params();
  if (!tp.is_postal()) {
    throw std::invalid_argument(
        "plan_from_tree: continuous broadcast is a postal-model scheme");
  }
  const int m = tree.size();

  ContinuousResult result;
  ContinuousPlan plan;
  plan.params = Params::postal(m + 1, tp.L);
  plan.source = 0;
  plan.tree = tree;

  // Letters = distinct leaf delays; blocks = internal nodes.
  std::map<Time, int> leaf_counts;  // delay -> per-step supply
  std::vector<BlockSpec> specs;
  std::vector<int> node_of_spec;
  for (int v = 0; v < m; ++v) {
    const auto& node = tree.node(v);
    if (node.children.empty()) {
      ++leaf_counts[node.label];
    } else {
      specs.push_back(BlockSpec{static_cast<int>(node.children.size()),
                                node.label});
      node_of_spec.push_back(v);
    }
  }
  std::vector<int> supplies;
  for (const auto& [delay, count] : leaf_counts) {
    plan.letter_delays.push_back(delay);
    supplies.push_back(count);
  }

  plan.max_wait = max_wait;
  auto solve = assign_words(plan.letter_delays, specs, supplies, max_wait,
                            budget);
  result.status = solve.status;
  result.nodes_explored = solve.nodes_explored;
  if (solve.status != SolveStatus::kSolved) return result;

  // Assign processors: source = 0, block members next, receive-only last.
  ProcId next = 1;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ContinuousBlock block;
    block.tree_node = node_of_spec[i];
    block.r = specs[i].r;
    block.d = specs[i].d;
    block.word = solve.assignment->words[i];
    for (int j = 0; j < block.r; ++j) block.members.push_back(next++);
    plan.blocks.push_back(std::move(block));
  }
  plan.receive_only = next++;
  if (next != plan.params.P) {
    throw std::logic_error("plan_from_tree: processor count mismatch");
  }
  plan.receive_only_letter = solve.assignment->receive_only_letter;
  result.plan = std::move(plan);
  return result;
}

ContinuousResult plan_continuous(Time L, Time t, std::uint64_t budget) {
  if (L < 1 || t < 0) {
    throw std::invalid_argument("plan_continuous: bad L/t");
  }
  const Fib fib(L);
  const Count m_count = fib.f(t);
  if (m_count > (Count{1} << 20)) {
    throw std::invalid_argument("plan_continuous: P(t) too large");
  }
  const int m = static_cast<int>(m_count);
  return plan_from_tree(BroadcastTree::optimal(Params::postal(m, L), m),
                        budget);
}

Schedule emit_k_items(const ContinuousPlan& plan, int k) {
  if (k < 1) throw std::invalid_argument("emit_k_items: k >= 1");
  const Time L = plan.params.L;
  const auto P = static_cast<std::size_t>(plan.params.P);
  const auto m = static_cast<std::size_t>(plan.tree.size());
  const auto n_letters = static_cast<int>(plan.letter_delays.size());
  Schedule out(plan.params, k);
  for (ItemId i = 0; i < k; ++i) {
    out.add_initial(i, plan.source, i);  // generated every g = 1 cycles
  }
  out.reserve_sends(static_cast<std::size_t>(k) * m);  // one per (item, node)

  // The consumer order below relies on plan_from_tree's numbering: block
  // members in increasing ids, block after block, the receive-only last.
  ProcId prev = plan.source;
  for (const ContinuousBlock& block : plan.blocks) {
    for (const ProcId q : block.members) {
      if (q <= prev) {
        throw std::invalid_argument(
            "emit_k_items: processors must be numbered block by block");
      }
      prev = q;
    }
  }
  if (plan.receive_only <= prev) {
    throw std::invalid_argument(
        "emit_k_items: the receive-only processor must be numbered last");
  }

  // Item i reaches tree node v at step s = i + L + label(v), so a block's
  // member index i mod r for the item arriving at v is phase - off mod r,
  // with phase = s mod r kept per block as the steps advance (no division
  // per send) and off = (L + label(v)) mod r fixed per node.
  std::vector<int> phase(plan.blocks.size());  // s mod r, per block
  std::vector<int> recv_off(plan.blocks.size());
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    phase[b] = posmod(L, plan.blocks[b].r);
    recv_off[b] = posmod(L + plan.blocks[b].d, plan.blocks[b].r);
  }
  const auto member = [&](std::size_t b, int off) {
    const ContinuousBlock& block = plan.blocks[b];
    const int j = phase[b] - off;
    return block.members[static_cast<std::size_t>(j < 0 ? j + block.r : j)];
  };
  // The block that sends to each tree node is its parent's; -1 when the
  // source sends it (the root).
  std::vector<int> block_of_node(m, -1);
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    block_of_node[static_cast<std::size_t>(plan.blocks[b].tree_node)] =
        static_cast<int>(b);
  }
  std::vector<int> sender_block(m, -1);
  std::vector<int> sender_off(m, 0);
  std::vector<std::vector<int>> leaves_by_letter(
      static_cast<std::size_t>(n_letters));
  for (std::size_t v = 0; v < m; ++v) {
    const auto& node = plan.tree.node(static_cast<int>(v));
    if (node.parent >= 0) {
      const int b = block_of_node[static_cast<std::size_t>(node.parent)];
      if (b < 0) throw std::logic_error("emit_k_items: leaf has no holder");
      sender_block[v] = b;
      sender_off[v] =
          posmod(L + node.label, plan.blocks[static_cast<std::size_t>(b)].r);
    }
    if (!node.children.empty()) continue;
    const auto it = std::find(plan.letter_delays.begin(),
                              plan.letter_delays.end(), node.label);
    if (it == plan.letter_delays.end()) {
      throw std::logic_error("emit_k_items: leaf delay has no letter");
    }
    leaves_by_letter[static_cast<std::size_t>(
                         it - plan.letter_delays.begin())]
        .push_back(static_cast<int>(v));
  }
  const auto sender_of = [&](int v) -> ProcId {
    const auto uv = static_cast<std::size_t>(v);
    const int b = sender_block[uv];
    return b < 0 ? plan.source
                 : member(static_cast<std::size_t>(b), sender_off[uv]);
  };

  // Each letter's consumer slots, built once: word position p of block b
  // naming the letter (in wait variant w) is received, for the item
  // arriving at step s, by member (s + c) mod r with c = (w - L - d - p)
  // mod r.  Sorted by (letter, block, c, w), a block's slots at step s
  // list their members in increasing order after one rotation, so the
  // consumers of a (step, letter) come out sorted by (processor, wait)
  // without a sort; the receive-only processor, numbered last, closes the
  // letter's list.  Consumers take the letter's leaves in that order.
  struct Slot {
    int letter;
    int block;
    int c;
    int wait;
  };
  std::vector<Slot> slots;
  slots.reserve(m);
  int max_wait = 0;
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    const ContinuousBlock& block = plan.blocks[b];
    for (int p = 1; p < block.r; ++p) {
      const int ext = block.word[static_cast<std::size_t>(p - 1)];
      const int w = ext / n_letters;
      max_wait = std::max(max_wait, w);
      slots.push_back(Slot{ext % n_letters, static_cast<int>(b),
                           posmod(w - L - block.d - p, block.r), w});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return std::tie(a.letter, a.block, a.c, a.wait) <
           std::tie(b.letter, b.block, b.c, b.wait);
  });
  std::vector<std::size_t> letter_begin(
      static_cast<std::size_t>(n_letters) + 1, 0);
  for (const Slot& slot : slots) {
    ++letter_begin[static_cast<std::size_t>(slot.letter) + 1];
  }
  for (int l = 0; l < n_letters; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    letter_begin[ul + 1] += letter_begin[ul];
    const std::size_t consumers = letter_begin[ul + 1] - letter_begin[ul] +
                                  (plan.receive_only_letter == l ? 1 : 0);
    if (consumers != leaves_by_letter[ul].size()) {
      throw std::logic_error("emit_k_items: supply/demand mismatch");
    }
  }

  // busy[(t - L) * P + q]: processor q receives at cycle t.  Internal
  // (active) receptions are fixed at their arrival and marked up front;
  // buffered letters (wait > 0, Theorem 3.8) take the earliest free cycle
  // at or after their arrival, in arrival order and, within one arrival,
  // by (wait, item).  Earliest-fit in arrival order cannot do worse than
  // the steady-state pattern, and compresses the drain at the end (the
  // paper's Figure 5 shows exactly this: delayed items, boxed, slotting
  // into gaps).  The table grows if a letter is pushed past the last
  // arrival.
  const Time last = static_cast<Time>(k) - 1 + L + plan.tree.makespan();
  std::vector<unsigned char> busy(static_cast<std::size_t>(last - L + 1) * P,
                                  0);
  const auto cell = [&](Time t, ProcId q) -> unsigned char& {
    const std::size_t at =
        static_cast<std::size_t>(t - L) * P + static_cast<std::size_t>(q);
    if (at >= busy.size()) busy.resize(std::max(2 * busy.size(), at + P), 0);
    return busy[at];
  };
  for (const ContinuousBlock& block : plan.blocks) {
    for (ItemId i = 0, j = 0; i < k; ++i, j = j + 1 == block.r ? 0 : j + 1) {
      cell(L + block.d + i, block.members[static_cast<std::size_t>(j)]) = 1;
    }
  }

  // Walk every arrival step.  Arrivals of item i happen during
  // [i + L, i + L + makespan]; the final step is (k-1) + L + makespan.
  // Every send of step s starts at s - L, and a postal single-sending
  // plan starts at most one send per processor per cycle, so listing a
  // step's sends by sender emits them in Schedule::sort() order.
  struct Reception {
    ProcId from;
    ProcId to;
    ItemId item;
    int wait;
    Time recv;
  };
  std::vector<Reception> step;      // this step's receptions
  step.reserve(P);
  std::vector<int> by_sender(P, -1);  // index into `step`, per sender
  for (Time s = L; s <= last; ++s) {
    step.clear();
    // Internal receptions: block b's phase-0 member takes item s - L - d.
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
      const Time i = s - L - plan.blocks[b].d;
      if (i < 0 || i >= k) continue;
      step.push_back(Reception{sender_of(plan.blocks[b].tree_node),
                               member(b, recv_off[b]),
                               static_cast<ItemId>(i), 0, s});
    }
    const std::size_t first_letter = step.size();
    // Letter receptions, by increasing item (decreasing letter delay).
    for (int l = n_letters - 1; l >= 0; --l) {
      const auto ul = static_cast<std::size_t>(l);
      const Time i = s - L - plan.letter_delays[ul];
      if (i < 0 || i >= k) continue;
      const auto item = static_cast<ItemId>(i);
      const std::vector<int>& leaves = leaves_by_letter[ul];
      std::size_t x = 0;
      const auto consume = [&](ProcId to, int wait) {
        const ProcId from = sender_of(leaves[x++]);
        if (from == to) throw std::logic_error("emit_k_items: self-send");
        step.push_back(Reception{from, to, item, wait, s});
      };
      for (std::size_t g = letter_begin[ul]; g < letter_begin[ul + 1];) {
        const int b = slots[g].block;
        std::size_t g_end = g;
        while (g_end < letter_begin[ul + 1] && slots[g_end].block == b) {
          ++g_end;
        }
        // Members (c + shift) mod r: the slots whose sum wraps come first.
        const ContinuousBlock& block = plan.blocks[static_cast<std::size_t>(b)];
        const int shift = phase[static_cast<std::size_t>(b)];
        const auto take = [&](std::size_t j) {
          const int at = slots[j].c + shift;
          consume(block.members[static_cast<std::size_t>(
                      at < block.r ? at : at - block.r)],
                  slots[j].wait);
        };
        std::size_t split = g;
        while (split < g_end && slots[split].c < block.r - shift) ++split;
        for (std::size_t j = split; j < g_end; ++j) take(j);
        for (std::size_t j = g; j < split; ++j) take(j);
        g = g_end;
      }
      if (plan.receive_only_letter == l) consume(plan.receive_only, 0);
    }
    for (int w = 0; w <= max_wait; ++w) {
      for (std::size_t j = first_letter; j < step.size(); ++j) {
        Reception& rec = step[j];
        if (rec.wait != w) continue;
        while (cell(rec.recv, rec.to) != 0) ++rec.recv;
        cell(rec.recv, rec.to) = 1;
      }
    }

    ProcId lo = plan.params.P;
    ProcId hi = -1;
    for (std::size_t j = 0; j < step.size(); ++j) {
      const ProcId from = step[j].from;
      int& slot = by_sender[static_cast<std::size_t>(from)];
      if (slot >= 0) {
        throw std::logic_error("emit_k_items: P" + std::to_string(from) +
                               " starts two sends at cycle " +
                               std::to_string(s - L));
      }
      slot = static_cast<int>(j);
      lo = std::min(lo, from);
      hi = std::max(hi, from);
    }
    for (ProcId from = lo; from <= hi; ++from) {
      int& slot = by_sender[static_cast<std::size_t>(from)];
      if (slot < 0) continue;
      const Reception& rec = step[static_cast<std::size_t>(slot)];
      slot = -1;
      out.add_send(SendOp{s - L, rec.from, rec.to, rec.item,
                          rec.recv != s ? rec.recv : kNever});
    }
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
      if (++phase[b] == plan.blocks[b].r) phase[b] = 0;
    }
  }
  return out;
}

std::vector<std::vector<Time>> reception_pattern(const ContinuousPlan& plan) {
  std::vector<std::vector<Time>> rows(
      static_cast<std::size_t>(plan.params.P));
  rows[static_cast<std::size_t>(plan.source)] = {-1};
  for (const auto& block : plan.blocks) {
    for (int j = 0; j < block.r; ++j) {
      // rows[proc][x] = role delay received at steps s with s = x (mod r).
      // Member j's phase-p reception happens at s = L + d + j + p (mod r).
      std::vector<Time> row(static_cast<std::size_t>(block.r));
      for (int p = 0; p < block.r; ++p) {
        const int x = posmod(plan.params.L + block.d + j + p, block.r);
        row[static_cast<std::size_t>(x)] =
            p == 0 ? block.d
                   : plan.letter_delays[static_cast<std::size_t>(
                         block.word[static_cast<std::size_t>(p - 1)])];
      }
      rows[static_cast<std::size_t>(
          block.members[static_cast<std::size_t>(j)])] = std::move(row);
    }
  }
  rows[static_cast<std::size_t>(plan.receive_only)] = {
      plan.letter_delays[static_cast<std::size_t>(plan.receive_only_letter)]};
  return rows;
}

}  // namespace logpc::bcast
