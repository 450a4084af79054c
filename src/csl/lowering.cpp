#include "csl/lowering.hpp"

#include "common/error.hpp"
#include "telemetry/phase.hpp"

namespace fvdf::csl {

using wse::color_bit;
using wse::kInvalidColor;
namespace bc = wse::bc;

namespace {
constexpr u8 kPhaseHalo = static_cast<u8>(telemetry::Phase::Halo);
constexpr u8 kPhaseAllReduce = static_cast<u8>(telemetry::Phase::AllReduce);
} // namespace

// ---------------------------------------------------------------------------
// HaloEmitter
// ---------------------------------------------------------------------------

HaloEmitter::HaloEmitter(bc::Builder& b, wse::PeCoord coord, i64 width,
                         i64 height, Spec spec)
    : b_(b), coord_(coord), width_(width), height_(height),
      spec_(std::move(spec)) {
  column_ = b_.dsd(spec_.column);
  west_ = b_.dsd(spec_.west);
  east_ = b_.dsd(spec_.east);
  south_ = b_.dsd(spec_.south);
  north_ = b_.dsd(spec_.north);
  for (int i = 0; i < 4; ++i) {
    done_x_[i] = b_.make_label();
    done_y_[i] = b_.make_label();
    next_[i] = b_.make_label();
  }
}

void HaloEmitter::emit_start() {
  b_.phase(kPhaseHalo);
  emit_launch(1);
}

void HaloEmitter::emit_launch(int step) {
  // Rebind the done handlers to this step's blocks (the step counter
  // lives in the handler table), reset the two-action join, then issue
  // the X action before the Y action.
  b_.seth(spec_.colors.done_x, done_x_[step - 1]);
  b_.seth(spec_.colors.done_y, done_y_[step - 1]);
  b_.setu(spec_.pending_ureg, 2);
  emit_x_action(step);
  emit_y_action(step);
}

void HaloEmitter::emit_x_action(int step) {
  const auto& c = spec_.colors;
  const bool odd_x = (coord_.x % 2) != 0;
  const auto send = [&](Color color) {
    b_.send(color, column_, color_bit(color), c.done_x);
  };
  const auto skip = [&](Color color) {
    b_.advl(color_bit(color));
    b_.act(c.done_x);
  };
  switch (step) {
  case 1:
    if (odd_x) {
      send(c.c1);
    } else if (coord_.x > 0) {
      b_.recv(c.c1, west_, c.done_x);
      x_recv_[0] = true;
    } else {
      skip(c.c1);
    }
    break;
  case 2:
    if (!odd_x) {
      send(c.c2);
    } else { // odd x >= 1 always has a west neighbor
      b_.recv(c.c2, west_, c.done_x);
      x_recv_[1] = true;
    }
    break;
  case 3:
    if (odd_x) {
      send(c.c1);
    } else if (coord_.x < width_ - 1) {
      b_.recv(c.c1, east_, c.done_x);
      x_recv_[2] = true;
    } else {
      skip(c.c1);
    }
    break;
  case 4:
    if (!odd_x) {
      send(c.c2);
    } else if (coord_.x < width_ - 1) {
      b_.recv(c.c2, east_, c.done_x);
      x_recv_[3] = true;
    } else {
      skip(c.c2);
    }
    break;
  }
}

void HaloEmitter::emit_y_action(int step) {
  const auto& c = spec_.colors;
  const bool odd_y = (coord_.y % 2) != 0;
  const auto send = [&](Color color) {
    b_.send(color, column_, color_bit(color), c.done_y);
  };
  const auto skip = [&](Color color) {
    b_.advl(color_bit(color));
    b_.act(c.done_y);
  };
  switch (step) {
  case 1:
    if (odd_y) {
      send(c.c3);
    } else if (coord_.y < height_ - 1) {
      b_.recv(c.c3, south_, c.done_y);
      y_recv_[0] = true;
    } else {
      skip(c.c3);
    }
    break;
  case 2:
    if (!odd_y) {
      send(c.c4);
    } else if (coord_.y < height_ - 1) {
      b_.recv(c.c4, south_, c.done_y);
      y_recv_[1] = true;
    } else {
      skip(c.c4);
    }
    break;
  case 3:
    if (odd_y) {
      send(c.c3);
    } else if (coord_.y > 0) {
      b_.recv(c.c3, north_, c.done_y);
      y_recv_[2] = true;
    } else {
      skip(c.c3);
    }
    break;
  case 4:
    if (!odd_y) {
      send(c.c4);
    } else if (coord_.y > 0) {
      b_.recv(c.c4, north_, c.done_y);
      y_recv_[3] = true;
    } else {
      skip(c.c4);
    }
    break;
  }
}

void HaloEmitter::emit_handlers() {
  // One (done_x, done_y, next) block triple per step. The done blocks run
  // the face work if this step's action was a receive, then join through
  // DECRET; the next block launches the following step (emitting its
  // actions records the recv flags the following handler blocks read, so
  // the emission order below — handlers for step s, then launch of s+1 —
  // is load-bearing).
  for (int step = 1; step <= 4; ++step) {
    const int i = step - 1;
    b_.bind(done_x_[i]);
    if (x_recv_[i] && spec_.face) {
      spec_.face(b_, step <= 2 ? wse::Dir::West : wse::Dir::East);
    }
    b_.decret(spec_.pending_ureg);
    b_.jmp(next_[i]);

    b_.bind(done_y_[i]);
    if (y_recv_[i] && spec_.face) {
      spec_.face(b_, step <= 2 ? wse::Dir::South : wse::Dir::North);
    }
    b_.decret(spec_.pending_ureg);
    b_.jmp(next_[i]);

    b_.bind(next_[i]);
    if (step < 4) {
      emit_launch(step + 1);
      b_.ret();
    } else {
      b_.jind(spec_.cont_reg);
    }
  }
}

// ---------------------------------------------------------------------------
// ReduceEmitter
// ---------------------------------------------------------------------------

ReduceEmitter::ReduceEmitter(bc::Builder& b, wse::PeCoord coord, i64 width,
                             i64 height, Spec spec)
    : b_(b), coord_(coord), width_(width), height_(height), spec_(spec) {
  value_dsd_ = b_.dsd(wse::Dsd{spec_.slot_value, 1, 1});
  in_dsd_ = b_.dsd(wse::Dsd{spec_.slot_in, 1, 1});
  start_ = b_.make_label();
  finish_ = b_.make_label();
  h_row_ = b_.make_label();
  h_col_ = b_.make_label();
  h_bcol_ = b_.make_label();
  h_brow_ = b_.make_label();
}

void ReduceEmitter::emit_handler_bindings() {
  const auto& c = spec_.colors;
  const bool right = coord_.x == width_ - 1;
  if (coord_.x > 0) b_.seth(c.row_done, h_row_);
  if (right && coord_.y > 0) b_.seth(c.col_done, h_col_);
  if (right && coord_.y != height_ - 1) b_.seth(c.bcast_col_done, h_bcol_);
  if (coord_.x < width_ - 1) b_.seth(c.bcast_row_done, h_brow_);
}

void ReduceEmitter::emit_row_phase_done_tail() {
  // Row sum is in f1; this coordinate is on the right-most column. y == 0
  // kicks off the column chain (or short-circuits to the broadcast on a
  // 1-row fabric); y > 0 just waits for col_done, keeping f1 live.
  const auto& c = spec_.colors;
  if (coord_.y != 0) return;
  if (height_ > 1) {
    b_.stos(1, spec_.slot_value);
    b_.send(c.col_a, value_dsd_); // y == 0 is even parity
    return;
  }
  emit_column_phase_done(1);
}

void ReduceEmitter::emit_column_phase_done(u8 total_reg) {
  const auto& c = spec_.colors;
  b_.stos(total_reg, spec_.slot_value);
  if (height_ > 1) b_.send(c.bcast_col, value_dsd_);
  if (width_ > 1) b_.send(c.bcast_row, value_dsd_);
  b_.jmp(finish_);
}

void ReduceEmitter::emit_blocks() {
  const auto& c = spec_.colors;
  const bool odd_x = (coord_.x % 2) != 0;
  const bool odd_y = (coord_.y % 2) != 0;
  const bool right = coord_.x == width_ - 1;
  const bool bottom = coord_.y == height_ - 1;

  // --- start: contribution in f0 ---
  // On a 1-wide fabric the row phase runs inline in this block and stores
  // the row sum to the value slot, so the broadcast receive into that slot
  // is armed after it. RECV is uncharged and the broadcast cannot arrive
  // before this PE's own column send, so either order runs identically;
  // this one keeps the store clear of a pending receive.
  const bool inline_row = coord_.x == 0 && width_ == 1;
  b_.bind(start_);
  b_.phase(kPhaseAllReduce);
  b_.stos(0, spec_.slot_value);
  if (coord_.x > 0) {
    b_.recv(odd_x ? c.row_a : c.row_b, in_dsd_, c.row_done);
  }
  if (right && coord_.y > 0) {
    b_.recv(odd_y ? c.col_a : c.col_b, in_dsd_, c.col_done);
  }
  if (right && !bottom && !inline_row) {
    b_.recv(c.bcast_col, value_dsd_, c.bcast_col_done);
  }
  if (!right) {
    b_.recv(c.bcast_row, value_dsd_, c.bcast_row_done);
  }
  if (coord_.x == 0) {
    if (width_ > 1) {
      b_.send(odd_x ? c.row_b : c.row_a, value_dsd_);
      b_.ret();
    } else {
      b_.movr(1, 0);
      emit_row_phase_done_tail();
      if (!bottom) b_.recv(c.bcast_col, value_dsd_, c.bcast_col_done);
      if (coord_.y != 0 || height_ > 1) b_.ret();
    }
  } else {
    b_.ret();
  }

  // --- row_done: western partial landed in slot_in ---
  if (coord_.x > 0) {
    b_.bind(h_row_);
    b_.lods(2, spec_.slot_in);
    b_.lods(3, spec_.slot_value);
    b_.sadd(2, 2, 3);
    b_.stos(2, spec_.slot_value);
    if (!right) {
      b_.send(odd_x ? c.row_b : c.row_a, value_dsd_);
      b_.ret();
    } else {
      b_.movr(1, 2);
      emit_row_phase_done_tail();
      if (coord_.y != 0 || height_ > 1) b_.ret();
    }
  }

  // --- col_done: northern column partial landed (right column only) ---
  if (right && coord_.y > 0) {
    b_.bind(h_col_);
    b_.lods(2, spec_.slot_in);
    b_.sadd(2, 2, 1);
    b_.stos(2, spec_.slot_value);
    if (!bottom) {
      b_.send(odd_y ? c.col_b : c.col_a, value_dsd_);
      b_.ret();
    } else {
      emit_column_phase_done(2);
    }
  }

  // --- bcast_col_done: fabric total landed; relay west then finish ---
  if (right && !bottom) {
    b_.bind(h_bcol_);
    if (width_ > 1) b_.send(c.bcast_row, value_dsd_);
    b_.jmp(finish_);
  }

  // --- bcast_row_done / shared finish: total to f0, resume caller ---
  if (!right) b_.bind(h_brow_);
  b_.bind(finish_);
  b_.lods(0, spec_.slot_value);
  b_.jind(spec_.cont_reg);
}

// ---------------------------------------------------------------------------
// EastwardEmitter
// ---------------------------------------------------------------------------

EastwardEmitter::EastwardEmitter(bc::Builder& b, wse::PeCoord coord, Spec spec)
    : b_(b), even_x_(coord.x % 2 == 0), west_edge_(coord.x == 0),
      spec_(spec) {
  FVDF_CHECK(spec_.mine.length == spec_.from_west.length);
  mine_ = b_.dsd(spec_.mine);
  from_west_ = b_.dsd(spec_.from_west);
  step2_ = b_.make_label();
  finish_ = b_.make_label();
}

void EastwardEmitter::emit_send() {
  // Data plus the switch command that flips this router and the
  // receiver's (Fig. 4b, circled configurations).
  const Color data = spec_.colors.data;
  b_.send(data, mine_, color_bit(data), spec_.colors.done);
}

void EastwardEmitter::emit_recv() {
  b_.recv(spec_.colors.data, from_west_, spec_.colors.done);
}

void EastwardEmitter::emit_start() {
  b_.seth(spec_.colors.done, step2_);
  if (even_x_) {
    emit_send();
  } else {
    emit_recv();
  }
}

void EastwardEmitter::emit_handlers() {
  b_.bind(step2_);
  b_.seth(spec_.colors.done, finish_);
  if (!even_x_) {
    emit_send(); // received; now the Sending root for step 2
  } else if (!west_edge_) {
    emit_recv(); // now in the Receiving position
  } else {
    // No western neighbor: restore the switch position locally, finish.
    b_.advl(color_bit(spec_.colors.data));
    b_.act(spec_.colors.done);
  }
  b_.ret();
  b_.bind(finish_);
  b_.jind(spec_.cont_reg);
}

// ---------------------------------------------------------------------------
// AnySourceEmitter
// ---------------------------------------------------------------------------

AnySourceEmitter::AnySourceEmitter(bc::Builder& b, wse::PeCoord coord,
                                   i64 width, i64 height, Spec spec)
    : b_(b), is_source_(coord == spec.source),
      on_source_row_(coord.y == spec.source.y), width_(width),
      height_(height), spec_(spec) {
  FVDF_CHECK(spec_.block.length > 0);
  block_ = b_.dsd(spec_.block);
  done_ = b_.make_label();
}

void AnySourceEmitter::emit_start() {
  const auto& c = spec_.colors;
  b_.seth(c.done, done_);
  if (is_source_) {
    // Publish along the row, then immediately down/up the own column; the
    // local copy is already in place.
    if (width_ > 1) b_.send(c.row, block_);
    if (height_ > 1) b_.send(c.col, block_);
    b_.act(c.done);
    return;
  }
  b_.recv(on_source_row_ ? c.row : c.col, block_, c.done);
}

void AnySourceEmitter::emit_handlers() {
  b_.bind(done_);
  // Source-row relays republish into their columns before finishing.
  if (!is_source_ && on_source_row_ && height_ > 1)
    b_.send(spec_.colors.col, block_);
  b_.jind(spec_.cont_reg);
}

} // namespace fvdf::csl
