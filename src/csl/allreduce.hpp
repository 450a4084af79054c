#pragma once
// Whole-fabric all-reduce (Sec. III-C), the operator behind the dot
// products of CG's alpha and beta:
//
//  1) every row reduces left -> right (parity-alternating chain colors);
//     the right-most PE of each row holds the row sum;
//  2) the right-most column reduces top -> bottom; the bottom-right PE
//     holds the fabric total;
//  3) the bottom-right PE broadcasts up the right-most column, and each
//     right-column PE broadcasts west across its row; every PE ends with
//     the total.
//
// This class holds the colors, the static routes and the two scalar
// slots; csl::ReduceEmitter (csl/lowering.hpp) emits the task chain
// itself as bytecode.

#include "csl/colors.hpp"
#include "wse/program.hpp"

namespace fvdf::csl {

using wse::ImageBuilder;

class AllReduce {
public:
  struct Colors {
    Color row_a = kReduceRowA; // driven by even-x PEs
    Color row_b = kReduceRowB; // driven by odd-x PEs
    Color col_a = kReduceColA; // right column, even-y senders
    Color col_b = kReduceColB; // right column, odd-y senders
    Color bcast_col = kBcastCol;
    Color bcast_row = kBcastRow;
    Color row_done = kReduceRowDone;   // local
    Color col_done = kReduceColDone;   // local
    Color bcast_col_done = kBcastColDone; // local
    Color bcast_row_done = kBcastRowDone; // local
  };

  AllReduce();
  explicit AllReduce(Colors colors);

  /// Writes the static routes into the PE's image and allocates the
  /// scalar slots this component needs in PE memory.
  void configure(ImageBuilder& ctx);

  /// Memory slots (valid after configure); their word offsets are the
  /// csl::ReduceEmitter::Spec slots.
  const wse::MemSpan& slot_value() const { return slot_value_; }
  const wse::MemSpan& slot_in() const { return slot_in_; }

private:
  Colors colors_;
  wse::MemSpan slot_value_{}; // this PE's running partial / final result
  wse::MemSpan slot_in_{};    // incoming partial (row or column)
};

} // namespace fvdf::csl
